"""Simulation laboratory for selection-error control.

Experiment configurations couple a synthetic design with an estimation
method and a schedule rule; replications draw data from per-replicate
random streams derived from (seed, index), so results are independent of
execution order and reproducible bit for bit at a fixed seed.  Reports
carry per-replication selection counts plus aggregate error and power
estimates with standard errors.
"""

import hashlib
import json
import math
import sys
from dataclasses import MISSING, asdict, dataclass, field, fields
from functools import lru_cache
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import _real, check_count, check_index, check_level, check_scale
from .groups import (
    WEIGHT_SCHEMES,
    GroupPartition,
    _scheme_weights,
    group_support_metrics,
    solve_group_slope,
)
from .schedules import (
    _RULE_TABLE,
    build_schedule,
    monte_carlo_corrected_schedule,
)
from .solver import (
    DesignMatrix,
    SupportMetrics,
    _DiagonalPlusConstant,
    operator_norm_sq,
    solve_slope,
    support_metrics,
)
from .stepdown import _STEPDOWN_RULES, stepdown_reject, two_sided_pvalues


class _Design(NamedTuple):
    """A design: generator names its draw function, read as a module global
    at call time so that a wrapper installed over it sees every draw; fixed
    marks a fixed n x n operator (n == m, no design correction) where the
    rest are random matrices; stats marks replications that carry marginal
    statistics for the stepdown baselines; auto is the signal "auto" names."""

    generator: str
    grouped: bool
    fixed: bool
    stats: bool
    auto: str


_DESIGNS = {
    "orthogonal-identity": _Design("gen_orthogonal", False, True, True, "strong"),
    "gaussian": _Design("gen_gaussian", False, False, False, "moderate"),
    "correlated-means": _Design("gen_correlated_means", False, True, True, "moderate"),
    "group-orthogonal": _Design("gen_group", True, True, False, "group-scaled"),
    "group-gaussian": _Design("gen_group", True, False, False, "group-scaled"),
}


class _Method(NamedTuple):
    """A method's schedule rule on feature designs and on group designs (None
    where it does not run), or the stepdown rule of a baseline."""

    feature: str = None
    group: str = None
    stepdown: str = None


_METHODS = {
    "slope-bh": _Method("BH", "group-max-FDR"),
    "k-slope": _Method("kFWER"),
    "f-slope": _Method("FDP"),
    "sd-kfwer": _Method(stepdown="kfwer"),
    "sd-fdp": _Method(stepdown="fdp"),
    "gk-slope": _Method(group="group-kFWER"),
    "gf-slope": _Method(group="group-FDP"),
}
CORRECTIONS = ("auto", "gaussian", "monte-carlo", "none")
GROUP_SCALE_MODES = ("per-class", "mean-size")

# ExperimentConfig's choice fields with their choices, and its numbers but rho
# with their rules
_CHOICES = {"design": _DESIGNS, "method": _METHODS, "correction": CORRECTIONS,
            "weight_scheme": WEIGHT_SCHEMES, "group_scale_mode": GROUP_SCALE_MODES}
_NUMBER_CHECKS = {
    **dict.fromkeys(("n", "m", "k", "replications", "mc_replicates", "fit_max_iter",
                     "num_groups"), check_count),
    **dict.fromkeys(("t", "seed"), check_index),
    **dict.fromkeys(("alpha", "gamma", "q"), check_level),
    **dict.fromkeys(("sigma", "fit_tol"), check_scale),
}


@dataclass(frozen=True)
class ExperimentConfig:
    """One simulation cell: a design, a method, and their parameters.

    t counts relevant features on feature designs and relevant groups on
    group designs.  signal is a named strength or an explicit amplitude,
    resolved here: "auto" picks the design's default.  correction selects
    how design randomness enters the schedule ("auto" maps each design to
    its standard treatment).

    A ValueError names a field of the wrong JSON type, outside its choices
    (on every design), breaking its errors.check_* rule (NaN and inf break
    each) or rho's [0,1), or that does not fit the others.  Fields are
    stored as given, so to_dict and config_id see them unchanged.
    """

    design: str
    method: str
    n: int
    m: int
    t: int
    signal: object = "auto"
    alpha: float = 0.1
    gamma: float = 0.1
    k: int = 5
    q: float = 0.1
    sigma: float = 1.0
    replications: int = 100
    seed: int = 0
    rho: float = 0.5
    num_groups: int = None
    group_sizes: tuple = None
    weight_scheme: str = "sqrt"
    group_scale_mode: str = "per-class"
    correction: str = "auto"
    mc_replicates: int = 100
    fit_tol: float = 1e-8
    fit_max_iter: int = 20000

    def __post_init__(self):
        # JSON types first, so that a null, string, list or boolean in a
        # field is refused by name instead of failing a comparison below
        for f in fields(self):
            v = getattr(self, f.name)
            if v is None and f.default is None:
                continue
            if f.type is str and not isinstance(v, str):
                raise ValueError(f"{f.name} must be a string, got {v!r}")
            if f.type in (int, float):
                if not _real(v):
                    raise ValueError(f"{f.name} must be a number, got {v!r}")
                # an int field takes an int (2.0 would change config_id, a NumPy int
                # its JSON); a fraction breaks the field's rule.  abs(v) < inf:
                # math.isfinite overflows on an int past the float range
                if f.type is int and not isinstance(v, int) and (
                        not abs(v) < math.inf or v == int(v)):
                    raise ValueError(f"{f.name} must be an integer, got {v!r}")
        if self.group_sizes is not None and not (
                isinstance(self.group_sizes, (list, tuple)) and self.group_sizes and all(
                    _real(s) and 1 <= s < math.inf and int(s) == s
                    for s in self.group_sizes)):
            raise ValueError(f"group_sizes must be a list of positive integers, "
                             f"got {self.group_sizes!r}")
        for name, choices in _CHOICES.items():
            if getattr(self, name) not in choices:
                raise ValueError(f"unknown {name} {getattr(self, name)!r}")
        design, method = _DESIGNS[self.design], _METHODS[self.method]
        for name, check in _NUMBER_CHECKS.items():
            if getattr(self, name) is not None:
                check(name, getattr(self, name))
        if not 0.0 <= self.rho < 1.0:
            raise ValueError(f"rho must lie in [0,1), got {self.rho!r}")
        if isinstance(self.signal, bool) or not isinstance(self.signal, (int, float)):
            if self.signal not in NAMED_SIGNALS:
                raise ValueError(f"unknown signal {self.signal!r}")
        elif not abs(self.signal) <= sys.float_info.max:
            raise ValueError(f"signal must be a finite amplitude, got {self.signal!r}")

        if design.grouped:
            if method.group is None:
                raise ValueError(
                    f"method {self.method!r} does not apply to group designs"
                )
            if self.num_groups is None or self.group_sizes is None:
                raise ValueError("group designs require num_groups and group_sizes")
            sizes = tuple(int(s) for s in self.group_sizes)
            if self.num_groups % len(sizes) != 0:
                raise ValueError(
                    f"num_groups={self.num_groups} must divide evenly into "
                    f"{len(sizes)} size classes"
                )
            object.__setattr__(self, "group_sizes", sizes)
            if self.m != self.num_groups // len(sizes) * sum(sizes):
                raise ValueError(
                    f"m={self.m} must equal the total of the expanded group sizes"
                )
            if self.t > self.num_groups:
                raise ValueError(f"t={self.t} exceeds num_groups={self.num_groups}")
            if self.k > self.num_groups:
                raise ValueError(f"k={self.k} exceeds num_groups={self.num_groups}")
            if self.correction == "monte-carlo":
                raise ValueError("monte-carlo correction applies to feature designs only")
        else:
            if method.feature is None and method.stepdown is None:
                raise ValueError(f"method {self.method!r} requires a group design")
            if self.num_groups is not None or self.group_sizes is not None:
                raise ValueError("num_groups/group_sizes apply to group designs only")
            if self.t > self.m:
                raise ValueError(f"t={self.t} exceeds m={self.m}")
            if self.k > self.m:
                raise ValueError(f"k={self.k} exceeds m={self.m}")
        if method.stepdown is not None and not design.stats:
            marginal = " and ".join(name for name, row in _DESIGNS.items() if row.stats)
            raise ValueError(f"method {self.method!r} needs marginal statistics; it runs "
                             f"on the {marginal} designs only")
        if design.fixed and self.n != self.m:
            raise ValueError(f"design {self.design!r} is square and needs n == m, "
                             f"got n={self.n}, m={self.m}")
        if design.fixed and self.correction not in ("auto", "none"):
            raise ValueError(f"correction {self.correction!r} does not apply to design "
                             f"{self.design!r}")
        # a signal the design cannot resolve is refused before any replication
        resolve_signal(self)

    def partition(self):
        """The group partition: each size class over a contiguous block of
        groups, weighted by weight_scheme; cached per group shape and scheme."""
        return _partition(self.num_groups, self.group_sizes, self.weight_scheme)

    def to_dict(self):
        d = asdict(self)
        if d["group_sizes"] is not None:
            d["group_sizes"] = list(d["group_sizes"])
        return d

    @classmethod
    def from_dict(cls, d, **overrides):
        """One experiment object's config, overrides replacing its same-named fields."""
        if not isinstance(d, dict):
            raise ValueError(f"an experiment must be an object, got {type(d).__name__}")
        d = dict(d, **overrides)
        unknown = sorted(set(d) - {f.name for f in fields(cls)})
        if unknown:
            raise ValueError(f"unknown experiment field(s): {', '.join(unknown)}")
        missing = [name for name in REQUIRED_FIELDS if name not in d]
        if missing:
            raise ValueError(f"experiment lacks required field(s): {', '.join(missing)}")
        return cls(**d)

    def config_id(self):
        """First 12 hex digits of the sha256 of the canonical config JSON."""
        blob = json.dumps(self.to_dict(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:12]


REQUIRED_FIELDS = tuple(f.name for f in fields(ExperimentConfig) if f.default is MISSING)


@lru_cache(maxsize=8)
def _partition(num_groups, group_sizes, weight_scheme):
    sizes = [s for s in group_sizes for _ in range(num_groups // len(group_sizes))]
    return GroupPartition.from_sizes(sizes, _scheme_weights(sizes, weight_scheme))


# The named signal strengths, each an amplitude of its config.  "group-scaled"
# is the per-group scaling of Brzyski, Gossmann, Su & Bogdan ("Group SLOPE",
# JASA 2019), the only strength of group designs.
_SIGNALS = {
    "strong": lambda c: 3.0 * math.sqrt(2.0 * math.log(c.n)),
    "moderate": lambda c: 2.0 * math.sqrt(2.0 * math.log(c.m)),
    "weak": lambda c: math.sqrt(2.0 * math.log(c.m)),
    "group-scaled": lambda c: _scaled_group_amplitude(c.partition().sizes,
                                                      c.group_scale_mode),
}
NAMED_SIGNALS = ("auto",) + tuple(_SIGNALS)


def resolve_signal(config):
    """The signal amplitude: an explicit number, or the named strength ("auto"
    names the design's).  On a group design relevant group g gets
    ||X_g beta_g|| = amplitude * sqrt(|g|)."""
    s = config.signal
    if isinstance(s, (int, float)) and not isinstance(s, bool):
        return float(s)
    design = _DESIGNS[config.design]
    if s == "auto":
        s = design.auto
    if design.grouped and s != "group-scaled":
        raise ValueError(
            f"signal {s!r} applies to feature designs; group designs use "
            "'group-scaled', 'auto', or an explicit amplitude"
        )
    if s == "group-scaled" and not design.grouped:
        raise ValueError("group-scaled signal applies to group designs only")
    return _SIGNALS[s](config)


@lru_cache(maxsize=8)
def _scaled_group_amplitude(sizes, group_scale_mode):
    """a equating the average target norm a*sqrt(|g|) with the average of
    sqrt(4*ln(T)/(1 - T^(-2/l)) - l) over groups, where T is the group count
    and l is each group's size (or the mean size when group_scale_mode is
    "mean-size"); computed once per group shape and scale mode."""
    T = len(sizes)
    if T < 2:
        raise ValueError("group-scaled signal needs at least two groups")
    if group_scale_mode == "mean-size":
        ls = [sum(sizes) / len(sizes)] * len(sizes)
    else:
        ls = list(sizes)
    num = 0.0
    for l in ls:
        # 1 - T^(-2/l) < 2 ln(T)/l, so the root's argument exceeds l > 0
        num += math.sqrt(4.0 * math.log(T) / (1.0 - T ** (-2.0 / l)) - l)
    den = sum(math.sqrt(s) for s in sizes)
    return num / den


def _equicorr_matrices(n, rho):
    """(whitener, root) for the equicorrelation covariance (1-rho)I + rho*J.

    Both have the closed form c1*(I - J/n) + c2*(J/n) with J the all-ones
    matrix; the whitener uses c = 1/sqrt(eigenvalue), the root sqrt.  Each
    is a _DiagonalPlusConstant operator, built in O(1) and applied in O(n).
    """
    lo = 1.0 - rho
    hi = 1.0 - rho + n * rho
    pairs = ((1.0 / math.sqrt(lo), 1.0 / math.sqrt(hi)), (math.sqrt(lo), math.sqrt(hi)))
    return tuple(_DiagonalPlusConstant(n, c1, (c2 - c1) / n) for c1, c2 in pairs)


def _rep_rng(seed, rep):
    return np.random.default_rng(np.random.SeedSequence((int(seed), int(rep))))


class Replication(NamedTuple):
    """One replication's data, as every generator returns it.

    partition is None on feature designs; truth holds the relevant features
    or groups; stats are the stepdown's marginal statistics (noise level
    config.sigma), or None where no stepdown runs.
    """

    design: object
    partition: object
    beta: np.ndarray
    y: np.ndarray
    truth: set
    stats: object


def _design(config, rng):
    """The design draw: None on a fixed design, which draws nothing; else
    N(0, 1/n) entries scaled to exactly unit columns in place, in one n x m
    buffer (divided by sqrt(n), then by the column norms), so no second
    design-sized array is made, and checked here once as a DesignMatrix."""
    if _DESIGNS[config.design].fixed:
        return None
    X = rng.standard_normal((config.n, config.m))
    X /= math.sqrt(config.n)
    X /= np.sqrt(np.einsum("ij,ij->j", X, X))
    return DesignMatrix(X)


def _response(config, rng, design, beta):
    """beta (design None, the identity) or X beta, plus sigma times a noise draw."""
    mean = beta if design is None else design.entries @ beta
    return mean + config.sigma * rng.standard_normal(mean.size)


def _feature_signal(config, rng, design):
    """The signal draw of a feature design, None (the identity) or _design's
    DesignMatrix: support, beta at the amplitude, then y (the identity's stats)."""
    support = rng.choice(config.m, size=config.t, replace=False)
    beta = np.zeros(config.m)
    beta[support] = resolve_signal(config)
    y = _response(config, rng, design, beta)
    return Replication(design, None, beta, y, {int(i) for i in support},
                       y if design is None else None)


def gen_orthogonal(config, rep):
    """Identity design as None, y as its stats; draw order: support, noise."""
    return _feature_signal(config, _rep_rng(config.seed, rep), None)


def gen_gaussian(config, rep):
    """Unit-column Gaussian design, validated by DesignMatrix in one pass, so a
    replication holds one n x m array; no stats.  Draw order: design, support,
    noise."""
    rng = _rep_rng(config.seed, rep)
    return _feature_signal(config, rng, _design(config, rng))


def gen_correlated_means(config, rep):
    """Estimate a sparse mean under equicorrelated noise via whitening.

    The raw observation ybar ~ N(mu, sigma^2 * Sigma), returned as stats
    (beta is mu), feeds the stepdown baselines directly (unit marginal
    variances); the sorted-L1 methods see the whitened regression y = W ybar
    against the design W, whose columns are deliberately not unit-norm.  W
    and the root of Sigma are _DiagonalPlusConstant operators, so no n x n
    matrix is formed, and W is returned as the design.  mu's nonzero value
    is scaled by the norm of W's columns, so that the effective per-column
    signal matches the named strength.  Draw order: support, then noise.
    """
    rng = _rep_rng(config.seed, rep)
    n = config.m
    W, root = _equicorr_matrices(n, config.rho)
    amp = resolve_signal(config) / math.sqrt(operator_norm_sq(W))
    support = rng.choice(n, size=config.t, replace=False)
    mu = np.zeros(n)
    mu[support] = amp
    ybar = mu + config.sigma * (root @ rng.standard_normal(n))
    y = W @ ybar
    return Replication(W, None, mu, y, {int(i) for i in support}, ybar)


def _group_signal(config, rng, design):
    """The signal draw of a group design (None, the identity; else _design's
    DesignMatrix): relevant groups, per-group coefficients in sorted group
    order, then y; truth holds groups, no stats.

    Relevant group g gets uniform [0.1, 1.1] coefficients rescaled so the
    image norm ||X_g beta_g|| equals amplitude * sqrt(|g|); on the identity
    that image is u itself.
    """
    part = config.partition()
    amp = resolve_signal(config)
    relevant = rng.choice(config.num_groups, size=config.t, replace=False)
    beta = np.zeros(config.m)
    for g in sorted(int(i) for i in relevant):
        idx = list(part.groups[g])
        u = rng.uniform(0.1, 1.1, size=len(idx))
        img = u if design is None else design.entries[:, idx] @ u
        norm = float(np.sqrt((img ** 2).sum()))
        beta[idx] = u * (amp * math.sqrt(len(idx)) / norm)
    y = _response(config, rng, design, beta)
    return Replication(design, part, beta, y, {int(i) for i in relevant}, None)


def gen_group(config, rep):
    """Group design and its partition; draw order: design (gaussian case),
    then the signal draw."""
    rng = _rep_rng(config.seed, rep)
    return _group_signal(config, rng, _design(config, rng))


def resolve_schedule(config):
    """Build the schedule (or stepdown thresholds) a config calls for.

    Returns (mode, payload, provenance): mode "schedule" carries a built
    LambdaSchedule, "thresholds" a stepdown level array, and "mc" a base
    schedule corrected per replication against that replication's design.
    """
    values = {"m": config.m, "n": config.n, "k": config.k, "alpha": config.alpha,
              "gamma": config.gamma, "q": config.q}
    method, design = _METHODS[config.method], _DESIGNS[config.design]
    if method.stepdown is not None:
        levels, names = _STEPDOWN_RULES[method.stepdown]
        params = {name: values[name] for name in names}
        return "thresholds", levels(**params), {"type": "thresholds",
                                                "rule": method.stepdown, "params": params}
    if design.grouped:
        part = config.partition()
        values.update(ranks=part.sizes, weights=tuple(part.weights))
    rule = method.group if design.grouped else method.feature
    corrected = _RULE_TABLE[rule].corrected
    if corrected and not design.fixed:
        if config.correction == "monte-carlo":
            base = _build(rule, values)
            return "mc", base, {"type": "monte-carlo", "rule": base.rule,
                                "params": dict(base.params, replicates=config.mc_replicates)}
        if config.correction != "none":
            rule = corrected
    sched = _build(rule, values)
    return "schedule", sched, {"type": "schedule", "rule": sched.rule, "params": sched.params}


def _build(rule, values):
    return build_schedule(rule, **{name: values[name] for name in _RULE_TABLE[rule].required})


def _draw(config, rep):
    """Replication rep of config, drawn by the generator its design row names."""
    return globals()[_DESIGNS[config.design].generator](config, rep)


def _fit(config, rep, data, mode, payload):
    """The stepdown's rejected set ("thresholds" mode) or the fit of data;
    "mc" first corrects the base schedule against data.design."""
    if mode == "thresholds":
        return stepdown_reject(two_sided_pvalues(data.stats, config.sigma), payload)
    fit_args = dict(sigma=config.sigma, tol=config.fit_tol, max_iter=config.fit_max_iter)
    if data.partition is not None:
        return solve_group_slope(data.design, data.y, data.partition, payload, **fit_args)
    if mode == "mc":
        mc_seed = int(np.random.SeedSequence((int(config.seed), int(rep))).generate_state(1)[0])
        payload = monte_carlo_corrected_schedule(payload, data.design, config.mc_replicates,
                                                 seed=mc_seed)
    return solve_slope(data.design, data.y, payload, **fit_args)


def _rep_worker(args):
    """(SupportMetrics, converged) of one replication: draw, fit, score."""
    config, rep, mode, payload = args
    try:
        data = _draw(config, rep)
        fit = _fit(config, rep, data, mode, payload)
        score = group_support_metrics if data.partition is not None else support_metrics
        converged = mode == "thresholds" or fit.converged
        return score(fit, data.truth, config.k, config.gamma), converged
    except Exception as exc:
        # a failed replication must name its position in the stream
        exc.args = (f"replication {rep} (base seed {config.seed}): {exc}",)
        raise


# TrialReport's per-replication arrays: the selection counts, then convergence
_REPLICATION_COLUMNS = SupportMetrics._fields + ("converged",)


@dataclass(eq=False)
class TrialReport:
    """Per-replication selection counts and their aggregates for one config."""

    config: ExperimentConfig
    v: np.ndarray
    r: np.ndarray
    tp: np.ndarray
    fdp: np.ndarray
    k_hit: np.ndarray
    fdp_exceeds: np.ndarray
    power: np.ndarray
    converged: np.ndarray
    aggregates: dict = field(default_factory=dict)
    extras: dict = field(default_factory=dict)

    def kfwer_at(self, k):
        """(estimate, se) of Prob(V >= k) from the stored per-rep counts."""
        return _aggregate(self.v >= int(k))


def _aggregate(values):
    x = np.asarray(values, dtype=float)
    est = float(x.mean())
    return est, float(math.sqrt(x.var() / x.size))


def run_experiment(config, threads=1, resolved=None):
    """Run every replication of a config and aggregate the outcomes.

    Parameters
    ----------
    threads : int
        Worker processes; 1 runs inline (fully deterministic path, used
        by the acceptance settings).  Results are merged by replication
        index, so the thread count never changes the numbers.
    resolved : optional
        A (mode, payload, provenance) triple from resolve_schedule, to
        reuse a schedule that was already built (e.g. for a manifest).

    Returns
    -------
    TrialReport
    """
    threads = check_count("threads", threads)
    mode, payload, provenance = resolved if resolved is not None else resolve_schedule(config)
    reps = config.replications
    if threads == 1:
        rows = [_rep_worker((config, r, mode, payload)) for r in range(reps)]
    else:
        # imported here: a serial run never loads the process pool
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=threads) as pool:
            rows = list(
                pool.map(
                    _rep_worker,
                    [(config, r, mode, payload) for r in range(reps)],
                    chunksize=max(1, reps // (4 * threads)),
                )
            )
    # each row is (SupportMetrics, converged); transpose to one array per column
    columns = zip(*(metrics + (converged,) for metrics, converged in rows))
    report = TrialReport(
        config=config,
        **{name: np.array(values) for name, values in zip(_REPLICATION_COLUMNS, columns)},
    )
    report.aggregates = {
        "kfwer": _aggregate(report.k_hit),
        "prob_fdp": _aggregate(report.fdp_exceeds),
        "fdr": _aggregate(report.fdp),
        "power": _aggregate(report.power),
    }
    report.extras = {"schedule": provenance, "all_converged": bool(report.converged.all()),
                     "signal_value": resolve_signal(config)}
    if _DESIGNS[config.design].grouped:
        report.extras["group_scale_mode"] = config.group_scale_mode
    return report


def write_report_csv(reports, path):
    """Summary table: one row per (config, metric), 17 significant digits."""
    lines = ["config_id,design,method,n,m,t,k,alpha,gamma,q,signal,replications,seed,"
             "metric,estimate,se"]
    for rep in reports:
        c = rep.config
        head = (f"{c.config_id()},{c.design},{c.method},{c.n},{c.m},{c.t},{c.k},"
                f"{c.alpha:.17g},{c.gamma:.17g},{c.q:.17g},"
                f"{rep.extras['signal_value']:.17g},{c.replications},{c.seed}")
        for metric in ("kfwer", "prob_fdp", "fdr", "power"):
            est, se = rep.aggregates[metric]
            lines.append(f"{head},{metric},{est:.17g},{se:.17g}")
    Path(path).write_text("\n".join(lines) + "\n")


def write_details_json(reports, path):
    """Per-replication counts and aggregates, deterministically serialized."""
    docs = []
    for rep in reports:
        docs.append(
            {
                "config": rep.config.to_dict(),
                "config_id": rep.config.config_id(),
                "extras": rep.extras,
                "aggregates": {
                    name: {"estimate": est, "se": se}
                    for name, (est, se) in rep.aggregates.items()
                },
                "replications": {
                    name: getattr(rep, name).tolist() for name in _REPLICATION_COLUMNS
                },
            }
        )
    Path(path).write_text(json.dumps({"reports": docs}, sort_keys=True, indent=1) + "\n")
