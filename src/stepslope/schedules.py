"""Regularization schedules for sorted-L1 estimation.

Feature-level schedules turn stepdown testing levels into non-increasing
weight sequences through normal upper-tail quantiles; group-level schedules
do the same through (mixtures of) scaled chi quantiles.  Corrected variants
inflate the base sequence to account for design randomness, either with a
closed-form Wishart factor or a Monte Carlo estimate, and truncate at the
first monotonicity violation so the result stays a valid schedule.
"""

import inspect
import json
import math
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import NumericalError, _real, check_count, check_index, check_level, check_scale
from .quantiles import ChiMixture, chi_quantile, mixture_quantile, normal_quantile
from .solver import _fit_design
from .sorted_l1 import _check_order
from .stepdown import fdp_thresholds, kfwer_thresholds


@dataclass(frozen=True, eq=False)
class LambdaSchedule:
    """A validated schedule: non-negative, non-increasing weights plus provenance.

    values : ndarray
        The weights, made read-only at construction.
    rule : str
        One of RULES, naming the generator that produced the values.
    params : dict
        The scalar parameters the generator was called with.
    """

    values: np.ndarray
    rule: str
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        vals = np.array(self.values, dtype=float)
        if vals.ndim != 1 or vals.size < 1:
            raise ValueError("schedule needs at least one entry")
        _check_order(vals)
        if self.rule not in RULES:
            raise ValueError(f"unknown schedule rule {self.rule!r}")
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "params", dict(self.params))

    def __len__(self):
        return self.values.size


def _normal_map(levels, sigma):
    # two-sided statistics: half of each level goes in the upper tail
    return np.array([sigma * normal_quantile(1.0 - a / 2.0) for a in levels.tolist()])


def _repeat_after_rise(first, m, step):
    """out[0] = first and out[i-1] = step(out, i) for i = 2..m, stopping at
    the first candidate above its predecessor (or None from step); the
    remaining entries repeat the predecessor, so the output never rises."""
    out = [first]
    for i in range(2, m + 1):
        cand = step(out, i)
        if cand is None or cand > out[-1]:
            out.extend([out[-1]] * (m - i + 1))
            break
        out.append(cand)
    return np.array(out)


def bh_schedule(m, q, sigma=1.0):
    """Schedule from Benjamini-Hochberg style per-index levels.

    values[i-1] = sigma * Phi^{-1}(1 - i*q / (2m)), i = 1..m.
    """
    m = check_count("m", m)
    q = check_level("q", q)
    sigma = check_scale("sigma", sigma)
    vals = _normal_map(q * np.arange(1, m + 1) / m, sigma)
    return LambdaSchedule(vals, "BH", {"m": m, "q": q, "sigma": sigma})


def kfwer_schedule(m, k, alpha, sigma=1.0):
    """Schedule from stepdown k-familywise levels.

    values[i-1] = sigma * Phi^{-1}(1 - alpha_i/2) over the levels alpha_i
    of stepdown.kfwer_thresholds; the first k entries share one level.
    """
    levels = kfwer_thresholds(m, k, alpha)
    sigma = check_scale("sigma", sigma)
    return LambdaSchedule(
        _normal_map(levels, sigma),
        "kFWER",
        {"m": levels.size, "k": int(k), "alpha": float(alpha), "sigma": sigma},
    )


def fdp_schedule(m, alpha, gamma, sigma=1.0):
    """Schedule from stepdown false-discovery-proportion levels.

    values[i-1] = sigma * Phi^{-1}(1 - alpha_i/2) over the levels alpha_i
    of stepdown.fdp_thresholds.
    """
    levels = fdp_thresholds(m, alpha, gamma)
    sigma = check_scale("sigma", sigma)
    return LambdaSchedule(
        _normal_map(levels, sigma),
        "FDP",
        {"m": levels.size, "alpha": float(alpha), "gamma": float(gamma), "sigma": sigma},
    )


def _corrected_rule(base, suffix, what):
    # a corrected feature rule is named after its base plus the correction
    rule = base.rule + suffix
    if rule not in _RULE_TABLE:
        raise ValueError(
            f"{what} correction needs a kFWER or FDP base, got rule {base.rule!r}"
        )
    return rule


def gaussian_corrected_schedule(base, n):
    """Inflate a base schedule for an independent-Gaussian design.

    Entry i multiplies base(i) by sqrt(1 + (1/(n-i)) * sum_{j<i} out(j)^2),
    accumulating the corrected values themselves.  The recursion stops at
    the first index whose corrected value exceeds its predecessor; the
    remaining entries repeat the predecessor, keeping the output
    non-increasing.

    Raises
    ------
    ValueError
        If base was not built by the kFWER or FDP rule, or if n - i - 1
        drops to zero before the truncation point (sample size too small).
    """
    rule = _corrected_rule(base, "-Gaussian", "Gaussian")
    n = check_count("n", n)
    bv = base.values
    sumsq = 0.0

    def step(out, i):
        nonlocal sumsq
        if n - i - 1 <= 0:
            raise ValueError(
                f"sample size too small for Gaussian correction: n={n} at entry {i}"
            )
        sumsq += out[-1] ** 2
        return float(bv[i - 1]) * math.sqrt(1.0 + sumsq / (n - i))

    params = dict(base.params)
    params["n"] = n
    return LambdaSchedule(_repeat_after_rise(float(bv[0]), bv.size, step), rule, params)


def monte_carlo_corrected_schedule(base, design, replicates=100, seed=0):
    """Correct a base schedule with design-driven Monte Carlo inflation.

    Follows the same recursion and truncation as the closed-form Gaussian
    correction, but the variance term at entry i is the empirical mean over
    `replicates` draws of (x_a^T X_S (X_S^T X_S)^{-1} lam)^2, where S is a
    uniformly random set of i-1 columns of the design, a is a uniformly
    random column outside S, and lam holds the corrected values built so
    far.  Deterministic for a fixed seed; each (entry, draw) pair has its
    own derived random stream, so the result does not depend on evaluation
    order.

    The draws of an entry stop as soon as its rise is proven: after draw r
    the candidate is formed from the running total over the full count,
    base(i) * sqrt(1 + total_r / replicates).  Every term is non-negative
    and each float operation rounds monotonically, so this never exceeds
    the candidate of all draws; once it exceeds the predecessor, the full
    candidate does too, and the schedule truncates at i either way.  An
    entry that does not rise takes every draw, so the stored values are
    those of the every-draw loop, bit for bit.  On a k >= 2 base, whose
    entries 1 and 2 are equal, any inflation rises at entry 2, typically
    at its first draw.

    design is a DesignMatrix, or a raw array checked as one without the
    unit-column check.

    Raises
    ------
    NumericalError
        If a sampled Gram matrix X_S^T X_S stays singular after 10 redraws.
        Only the draws that are reached are checked: a singular draw after
        an entry's rise is proven is never taken.
    """
    rule = _corrected_rule(base, "-MonteCarlo", "Monte Carlo")
    X = _fit_design(design, False, matrix_free=False).entries
    replicates = check_count("replicates", replicates)
    seed = check_index("seed", seed)
    m_cols = X.shape[1]
    bv = base.values
    if bv.size > m_cols:
        raise ValueError(
            f"schedule length {bv.size} exceeds design column count {m_cols}"
        )

    def step(out, i):
        s = i - 1
        lam = np.array(out)
        head = float(bv[i - 1])
        total = 0.0
        for r in range(replicates):
            rng = np.random.default_rng(np.random.SeedSequence((seed, i, r)))
            for attempt in range(10):
                pick = rng.choice(m_cols, size=s + 1, replace=False)
                sub = X[:, pick[:s]]
                gram = sub.T @ sub
                try:
                    coef = np.linalg.solve(gram, lam)
                except np.linalg.LinAlgError:
                    continue
                if not np.all(np.isfinite(coef)):
                    continue
                total += float(X[:, pick[s]] @ (sub @ coef)) ** 2
                break
            else:
                raise NumericalError(
                    f"singular column Gram matrix after 10 redraws at entry {i}"
                )
            cand = head * math.sqrt(1.0 + total / replicates)
            if cand > out[-1]:
                # the later draws can only raise the candidate further
                return cand
        return cand

    params = dict(base.params)
    params.update({"replicates": replicates, "seed": seed})
    return LambdaSchedule(_repeat_after_rise(float(bv[0]), bv.size, step), rule, params)


def _check_groups(ranks, weights):
    ranks = [check_count("group ranks", l) for l in ranks]
    weights = [check_scale("group weights", w) for w in weights]
    if len(ranks) != len(weights) or not ranks:
        raise ValueError("ranks and weights must be non-empty and equally long")
    return ranks, weights


def _chi_max(tails, ranks, weights):
    # largest weighted per-type chi quantile; distinct (rank, weight)
    # pairs only, since duplicates cannot change the max
    types = set(zip(ranks, weights))
    return np.array(
        [max(chi_quantile(1.0 - t, l) / w for l, w in types) for t in tails.tolist()]
    )


def _group_tails(variant, m, alpha, k=None, gamma=None):
    """Chi upper-tail masses of the "gk" (k-FWER) or "gf" (FDP) stepdown
    levels over m groups, and the parameters that name them."""
    if variant == "gk":
        if gamma is not None:
            raise ValueError("gamma does not apply to the gk variant")
        levels = kfwer_thresholds(m, k, alpha)
        params = {"m": m, "k": int(k), "alpha": float(alpha)}
    elif variant == "gf":
        if k is not None:
            raise ValueError("k does not apply to the gf variant")
        levels = fdp_thresholds(m, alpha, gamma)
        params = {"m": m, "alpha": float(alpha), "gamma": float(gamma)}
    else:
        raise ValueError(f"variant must be 'gk' or 'gf', got {variant!r}")
    # the two-sided normal tail alpha_i/2 in a one-sided chi tail: the group
    # levels are halved twice (ROADMAP, "the group-level halving")
    return levels / 2.0, params


def group_max_schedule(q, ranks, weights):
    """Group schedule from per-index FDR-style levels.

    values[i-1] = max_j (1/w_j) * F^{-1}_{chi_{l_j}}(1 - q*i/m) where m is
    the number of groups, l_j the group ranks, w_j the group weights.
    """
    ranks, weights = _check_groups(ranks, weights)
    q = check_level("q", q)
    m = len(ranks)
    vals = _chi_max(q * np.arange(1, m + 1) / m, ranks, weights)
    return LambdaSchedule(vals, "group-max-FDR", {"m": m, "q": q})


def gk_schedule(k, alpha, ranks, weights):
    """Group schedule with stepdown k-familywise levels in the chi tails."""
    ranks, weights = _check_groups(ranks, weights)
    tails, params = _group_tails("gk", len(ranks), alpha, k=k)
    return LambdaSchedule(_chi_max(tails, ranks, weights), "group-kFWER", params)


def gf_schedule(alpha, gamma, ranks, weights):
    """Group schedule with stepdown false-discovery-proportion levels."""
    ranks, weights = _check_groups(ranks, weights)
    tails, params = _group_tails("gf", len(ranks), alpha, gamma=gamma)
    return LambdaSchedule(_chi_max(tails, ranks, weights), "group-FDP", params)


def group_corrected_schedule(variant, n, ranks, weights, alpha, k=None, gamma=None):
    """Randomness-corrected group schedule for non-orthogonal designs.

    The first entry inverts the equal-weight mixture of the w_j^{-1} chi_{l_j}
    CDFs at its stepdown level.  Later entries inflate each component scale by

        S_j = sqrt((n - l_j(i-1))/n + w_j^2 ||lam||^2 / (n - l_j(i-1) - 1))

    with lam the entries built so far, and invert the mixture of
    (S_j/w_j) chi_{l_j} components.  A candidate above its predecessor stops
    the recursion; the tail repeats the predecessor.  Exhausted degrees of
    freedom (n - l_j(i-1) - 1 <= 0 for some group) also truncate, with a
    warning.

    Parameters
    ----------
    variant : str
        "gk" for k-familywise levels (needs k), "gf" for
        false-discovery-proportion levels (needs gamma).
    n : int
        Sample size of the design the schedule will be used with.
    """
    ranks, weights = _check_groups(ranks, weights)
    n = check_count("n", n)
    m = len(ranks)
    tails, params = _group_tails(variant, m, alpha, k, gamma)
    tails = tails.tolist()

    def invert(scales, i):
        comps = tuple((s / w, l) for s, w, l in zip(scales, weights, ranks))
        return mixture_quantile(ChiMixture(comps), 1.0 - tails[i - 1])

    def step(out, i):
        used = [l * (i - 1) for l in ranks]
        if any(n - u - 1 <= 0 for u in used):
            warnings.warn(
                f"degrees of freedom exhausted at entry {i}; schedule truncated",
                stacklevel=4,
            )
            return None
        sumsq = sum(v * v for v in out)
        scales = [
            math.sqrt((n - u) / n + w * w * sumsq / (n - u - 1))
            for u, w in zip(used, weights)
        ]
        return invert(scales, i)

    rule = "group-kFWER-corrected" if variant == "gk" else "group-FDP-corrected"
    vals = _repeat_after_rise(invert([1.0] * m, 1), m, step)
    return LambdaSchedule(vals, rule, dict(params, n=n))


class _Rule(NamedTuple):
    """One row of the rule table.

    aliases are the command-line tokens, the lower-cased name first.
    required and optional name the rule's parameters; they are read off
    build's signature, whose defaults are the generator defaults.  build
    reaches the generators through module globals at call time.
    corrected is the rule a random design calls for in place of this one.
    """

    name: str
    aliases: tuple
    required: tuple
    optional: tuple
    build: object
    corrected: str


def _rule(name, extra_aliases, build, corrected=None):
    params = inspect.signature(build).parameters.values()
    return _Rule(
        name,
        (name.lower(),) + extra_aliases,
        tuple(p.name for p in params if p.default is p.empty),
        tuple(p.name for p in params if p.default is not p.empty),
        build,
        corrected,
    )


_RULE_TABLE = {
    row.name: row
    for row in (
        _rule("BH", (), lambda m, q, sigma=1.0: bh_schedule(m, q, sigma)),
        _rule("kFWER", (), lambda m, k, alpha, sigma=1.0: kfwer_schedule(m, k, alpha, sigma),
              corrected="kFWER-Gaussian"),
        _rule("FDP", (),
              lambda m, alpha, gamma, sigma=1.0: fdp_schedule(m, alpha, gamma, sigma),
              corrected="FDP-Gaussian"),
        _rule("kFWER-Gaussian", (),
              lambda m, k, alpha, n, sigma=1.0: gaussian_corrected_schedule(
                  kfwer_schedule(m, k, alpha, sigma), n)),
        _rule("FDP-Gaussian", (),
              lambda m, alpha, gamma, n, sigma=1.0: gaussian_corrected_schedule(
                  fdp_schedule(m, alpha, gamma, sigma), n)),
        _rule("kFWER-MonteCarlo", ("kfwer-monte-carlo",),
              lambda m, k, alpha, design, sigma=1.0, replicates=100, seed=0:
              monte_carlo_corrected_schedule(
                  kfwer_schedule(m, k, alpha, sigma), design, replicates, seed)),
        _rule("FDP-MonteCarlo", ("fdp-monte-carlo",),
              lambda m, alpha, gamma, design, sigma=1.0, replicates=100, seed=0:
              monte_carlo_corrected_schedule(
                  fdp_schedule(m, alpha, gamma, sigma), design, replicates, seed)),
        _rule("group-max-FDR", ("group-max",),
              lambda q, ranks, weights: group_max_schedule(q, ranks, weights)),
        _rule("group-kFWER", ("gk",),
              lambda k, alpha, ranks, weights: gk_schedule(k, alpha, ranks, weights),
              corrected="group-kFWER-corrected"),
        _rule("group-FDP", ("gf",),
              lambda alpha, gamma, ranks, weights: gf_schedule(alpha, gamma, ranks, weights),
              corrected="group-FDP-corrected"),
        _rule("group-kFWER-corrected", ("gk-corrected",),
              lambda k, alpha, n, ranks, weights: group_corrected_schedule(
                  "gk", n, ranks, weights, alpha, k=k)),
        _rule("group-FDP-corrected", ("gf-corrected",),
              lambda alpha, gamma, n, ranks, weights: group_corrected_schedule(
                  "gf", n, ranks, weights, alpha, gamma=gamma)),
    )
}
RULES = tuple(_RULE_TABLE)


def build_schedule(rule, **params):
    """Build the schedule of a rule from its parameters, given as keywords.

    A parameter given as None counts as not given.  Required parameters
    must be given and parameters foreign to the rule must not be; optional
    ones (sigma, replicates, seed) fall back to their generator defaults.
    """
    row = _RULE_TABLE.get(rule)
    if row is None:
        raise ValueError(f"unknown schedule rule {rule!r}")
    given = {name: value for name, value in params.items() if value is not None}
    for name in row.required:
        if name not in given:
            raise ValueError(f"rule {rule!r} requires parameter {name!r}")
    for name in given:
        if name not in row.required + row.optional:
            raise ValueError(f"rule {rule!r} does not accept parameter {name!r}")
    return row.build(**given)


def schedule_csv_text(schedule):
    """(index, value) rows, 1-based, 17 significant digits."""
    lines = ["index,value"]
    lines.extend(
        f"{i},{v:.17g}" for i, v in enumerate(schedule.values, start=1)
    )
    return "\n".join(lines) + "\n"


def schedule_to_csv(schedule, path):
    """Write schedule_csv_text to path."""
    Path(path).write_text(schedule_csv_text(schedule))


def schedule_values_from_csv(path):
    """Read back values written by schedule_to_csv, bit-exact.

    The CSV carries no provenance, so this returns a bare array rather
    than a LambdaSchedule.  Any other file is a ValueError naming path and
    the row, also for values out of LambdaSchedule's order.
    """
    lines = Path(path).read_text().strip().splitlines()
    if not lines or lines[0].strip() != "index,value":
        raise ValueError(f"{path}: expected header 'index,value'")
    vals = []
    for row, line in enumerate(lines[1:], start=1):
        idx, _, val = line.partition(",")
        try:
            idx, val = int(idx), float(val)
            _check_order(np.array(vals[-1:] + [val]))
        except ValueError as exc:
            raise ValueError(f"{path}: row {row} {line!r}: {exc}") from None
        if idx != row:
            raise ValueError(f"{path}: indices must run 1..m, got {idx} at row {row}")
        vals.append(val)
    if not vals:
        raise ValueError(f"{path}: no schedule entries")
    return np.array(vals)


def schedule_json_text(schedule):
    """Rule, params, and values; values at 17 significant digits."""
    vals = ", ".join(f"{v:.17g}" for v in schedule.values)
    return '{"rule": %s, "params": %s, "values": [%s]}\n' % (
        json.dumps(schedule.rule),
        json.dumps(schedule.params, sort_keys=True),
        vals,
    )


def schedule_to_json(schedule, path):
    """Write schedule_json_text to path."""
    Path(path).write_text(schedule_json_text(schedule))


def schedule_from_json(path):
    """Rebuild a LambdaSchedule written by schedule_to_json, bit-exact.

    Any other document is a ValueError naming path: one that is not a JSON
    object, lacks a key, has params other than an object or values other
    than a list of JSON numbers (booleans and strings included), or that
    LambdaSchedule refuses.
    """
    try:
        doc = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: invalid JSON ({exc})")
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: expected a JSON object, got {type(doc).__name__}")
    for key in ("rule", "params", "values"):
        if key not in doc:
            raise ValueError(f"{path}: missing key {key!r}")
    if not isinstance(doc["params"], dict):
        raise ValueError(f"{path}: params must be a JSON object")
    values = doc["values"]
    if not (isinstance(values, list) and all(map(_real, values))):
        raise ValueError(f"{path}: values must be a list of numbers")
    try:  # an int past the float range overflows the cast
        return LambdaSchedule(np.array(values, dtype=float), doc["rule"], doc["params"])
    except (OverflowError, ValueError) as exc:
        raise ValueError(f"{path}: {exc}") from None
