"""Simulation laboratory: configs, generators, schedule routing, reports."""
import csv
import itertools
import json
import math
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from stepslope import simlab
from stepslope.groups import GroupPartition, standardize
from stepslope.schedules import bh_schedule
from stepslope.simlab import (
    ExperimentConfig,
    _equicorr_matrices,
    _rep_worker,
    gen_correlated_means,
    gen_gaussian,
    gen_group,
    gen_orthogonal,
    resolve_schedule,
    resolve_signal,
    run_experiment,
    write_details_json,
    write_report_csv,
)
from stepslope.solver import DesignMatrix, operator_norm_sq
from stepslope.stepdown import fdp_thresholds, kfwer_thresholds


def _feature_config(**kw):
    base = dict(design="orthogonal-identity", method="k-slope", n=40, m=40, t=5,
                replications=8, seed=3)
    base.update(kw)
    return ExperimentConfig(**base)


def _group_config(**kw):
    base = dict(design="group-orthogonal", method="gk-slope", n=25, m=25, t=2,
                num_groups=10, group_sizes=(2, 3), k=2, replications=4, seed=5)
    base.update(kw)
    return ExperimentConfig(**base)


# ---------------------------------------------------------------- config


@pytest.mark.parametrize(
    "kw,msg",
    [
        (dict(design="diag"), "unknown design"),
        (dict(method="lasso"), "unknown method"),
        (dict(n=0, m=0), "n must be a positive integer"),
        (dict(replications=0), "replications must be a positive integer"),
        (dict(t=-1), "t must be a non-negative integer"),
        (dict(t=41), "exceeds m="),
        (dict(seed=-1), "seed must be a non-negative integer"),
        (dict(alpha=0.0), "alpha must lie strictly inside"),
        (dict(gamma=1.0), "gamma must lie strictly inside"),
        (dict(q=2.0), "q must lie strictly inside"),
        (dict(sigma=0.0), "sigma must be positive"),
        (dict(rho=1.0), "rho must lie in"),
        (dict(k=0), "k must be a positive integer"),
        (dict(k=41), "exceeds m="),
        (dict(correction="jackknife"), "unknown correction"),
        (dict(signal="loud"), "unknown signal"),
        (dict(method="gk-slope"), "requires a group design"),
        (dict(num_groups=4), "apply to group designs only"),
        (dict(design="gaussian", method="sd-kfwer"), "needs marginal statistics"),
        (dict(n=41), "needs n == m"),
        (dict(correction="gaussian"), "does not apply to design"),
        (dict(signal=float("nan")), "signal must be a finite amplitude"),
        (dict(signal=float("inf")), "signal must be a finite amplitude"),
        (dict(mc_replicates=0), "mc_replicates must be a positive integer, got 0"),
        (dict(mc_replicates=2.5), r"mc_replicates must be a positive integer, got 2\.5"),
        (dict(fit_tol=-1.0), r"fit_tol must be positive, got -1\.0"),
        (dict(fit_tol=0.0), r"fit_tol must be positive, got 0\.0"),
        (dict(fit_tol=float("nan")), "fit_tol must be positive, got nan"),
        (dict(fit_max_iter=0), "fit_max_iter must be a positive integer, got 0"),
        (dict(fit_tol=float("inf")), "fit_tol must be positive and finite, got inf"),
        (dict(sigma=float("inf")), "sigma must be positive and finite, got inf"),
        (dict(weight_scheme="bogus"), "unknown weight_scheme 'bogus'"),
        (dict(group_scale_mode="bogus"), "unknown group_scale_mode 'bogus'"),
        (dict(alpha=10**400), r"alpha must lie strictly inside \(0,1\), got inf"),
        (dict(sigma=10**400), "sigma must be positive and finite, got inf"),
    ],
)
def test_feature_config_validation(kw, msg):
    with pytest.raises(ValueError, match=msg):
        _feature_config(**kw)


@pytest.mark.parametrize(
    "kw,msg",
    [
        (dict(method="k-slope"), "does not apply to group designs"),
        (dict(num_groups=None), "require num_groups and group_sizes"),
        (dict(num_groups=7), "must divide evenly"),
        (dict(m=24, n=24), "must equal the total"),
        (dict(t=11), "exceeds num_groups"),
        (dict(k=11), "exceeds num_groups"),
        (dict(weight_scheme="flat"), "unknown weight_scheme"),
        (dict(group_scale_mode="max"), "unknown group_scale_mode"),
        (dict(correction="monte-carlo"), "feature designs only"),
        (dict(group_sizes=(2, 0)), "positive integers"),
        (dict(num_groups=0), "num_groups must be a positive integer, got 0"),
        (dict(num_groups=2.5), r"num_groups must be a positive integer, got 2\.5"),
        (dict(fit_tol=-1.0), r"fit_tol must be positive, got -1\.0"),
        (dict(fit_max_iter=0), "fit_max_iter must be a positive integer, got 0"),
    ],
)
def test_group_config_validation(kw, msg):
    with pytest.raises(ValueError, match=msg):
        _group_config(**kw)


@pytest.mark.parametrize("value", [None, "7", [7], True, False], ids=repr)
@pytest.mark.parametrize("name", ["n", "t", "alpha", "sigma", "replications", "fit_tol"])
def test_numeric_fields_refuse_other_json_types(name, value):
    # null, strings, lists and booleans are refused by name (a boolean is
    # not taken for 0 or 1), as a ValueError the CLI maps to exit code 2
    with pytest.raises(ValueError, match=f"{name} must be a number, got {re.escape(repr(value))}"):
        _feature_config(**{name: value})


@pytest.mark.parametrize(
    "kw,msg",
    [
        (dict(design=None), "design must be a string, got None"),
        (dict(method=["k-slope"]), r"method must be a string, got \['k-slope'\]"),
        (dict(correction=1), "correction must be a string, got 1"),
        (dict(n=float("inf")), "n must be an integer, got inf"),
        (dict(k=float("nan")), "k must be an integer, got nan"),
        (dict(n=40.0), r"n must be an integer, got 40\.0"),
        (dict(m=40.0), r"m must be an integer, got 40\.0"),
        (dict(t=2.0), r"t must be an integer, got 2\.0"),
        (dict(k=2.0), r"k must be an integer, got 2\.0"),
        (dict(seed=3.0), r"seed must be an integer, got 3\.0"),
        (dict(replications=2.0), r"replications must be an integer, got 2\.0"),
        (dict(n=np.int64(40)), "n must be an integer, got "),
    ],
)
def test_feature_config_refuses_wrong_types(kw, msg):
    with pytest.raises(ValueError, match=msg):
        _feature_config(**kw)


@pytest.mark.parametrize(
    "kw,msg",
    [
        (dict(num_groups="10"), "num_groups must be a number, got '10'"),
        (dict(num_groups=True), "num_groups must be a number, got True"),
        (dict(group_sizes=5), "group_sizes must be a list of positive integers, got 5"),
        (dict(group_sizes=("2", 3)), "group_sizes must be a list of positive integers"),
        (dict(group_sizes=(2, 3.5)), "group_sizes must be a list of positive integers"),
        (dict(group_sizes=(True, 3)), "group_sizes must be a list of positive integers"),
        (dict(weight_scheme=None), "weight_scheme must be a string, got None"),
        (dict(num_groups=10.0), r"num_groups must be an integer, got 10\.0"),
    ],
)
def test_group_config_refuses_wrong_types(kw, msg):
    with pytest.raises(ValueError, match=msg):
        _group_config(**kw)


def test_expanded_group_sizes_blocks():
    c = _group_config()
    assert c.partition().sizes == (2, 2, 2, 2, 2, 3, 3, 3, 3, 3)
    w = c.partition().weights
    assert np.array_equal(w[:5], np.full(5, math.sqrt(2.0)))
    assert np.array_equal(w[5:], np.full(5, math.sqrt(3.0)))
    inv = _group_config(weight_scheme="inv-sqrt").partition().weights
    assert np.allclose(inv * w, 1.0)


def test_config_dict_round_trip():
    for c in (_feature_config(), _group_config()):
        assert ExperimentConfig.from_dict(c.to_dict()) == c
        assert json.loads(json.dumps(c.to_dict())) == c.to_dict()


def test_config_id_is_stable_and_sensitive():
    a = _feature_config()
    assert a.config_id() == _feature_config().config_id()
    assert len(a.config_id()) == 12
    assert set(a.config_id()) <= set("0123456789abcdef")
    assert a.config_id() != _feature_config(seed=4).config_id()


# ---------------------------------------------------------------- signals


def test_named_signal_values():
    strong = _feature_config(n=1000, m=1000, signal="strong")
    assert resolve_signal(strong) == pytest.approx(11.150766566549514, abs=1e-12)
    gauss = ExperimentConfig(design="gaussian", method="f-slope", n=1000, m=500, t=20)
    # gaussian designs default to the moderate strength
    assert resolve_signal(gauss) == pytest.approx(7.051018705646548, abs=1e-12)
    weak = ExperimentConfig(
        design="gaussian", method="f-slope", n=1000, m=500, t=20, signal="weak"
    )
    assert resolve_signal(weak) == pytest.approx(3.525509352823274, abs=1e-12)
    assert resolve_signal(_feature_config(signal=4.25)) == 4.25
    assert resolve_signal(_feature_config()) == pytest.approx(
        3.0 * math.sqrt(2.0 * math.log(40)), abs=1e-12
    )
    with pytest.raises(ValueError, match="group designs only"):
        resolve_signal(_feature_config(signal="group-scaled"))


def test_group_amplitude_equal_sizes_closed_form():
    c = ExperimentConfig(
        design="group-orthogonal", method="gk-slope", n=1000, m=1000, t=20,
        num_groups=200, group_sizes=(5,),
    )
    a = resolve_signal(c)
    assert a == pytest.approx(1.9537829166618113, rel=1e-12)
    val = 4.0 * math.log(200) / (1.0 - 200 ** (-2.0 / 5)) - 5.0
    assert a == pytest.approx(math.sqrt(val) / math.sqrt(5.0), rel=1e-12)


def test_group_amplitude_mixed_sizes():
    assert resolve_signal(_group_config()) == pytest.approx(
        1.8516299696801706, rel=1e-12
    )
    T, ls = 10, [2] * 5 + [3] * 5
    num = sum(math.sqrt(4.0 * math.log(T) / (1.0 - T ** (-2.0 / l)) - l) for l in ls)
    den = sum(math.sqrt(l) for l in ls)
    assert resolve_signal(_group_config()) == pytest.approx(
        num / den, rel=1e-12
    )
    mean = resolve_signal(_group_config(group_scale_mode="mean-size"))
    assert mean == pytest.approx(1.8472887821945885, rel=1e-12)


def test_group_amplitude_explicit_and_errors():
    assert resolve_signal(_group_config(signal=2.5)) == 2.5
    with pytest.raises(ValueError, match="feature designs"):
        resolve_signal(_group_config(signal="strong"))


def test_group_amplitude_computed_once_per_amplitude_key():
    # the loop over groups runs once per (num_groups, group_sizes,
    # group_scale_mode), whatever the seed, the replication or the method
    shape = dict(num_groups=14, n=35, m=35)
    simlab._scaled_group_amplitude.cache_clear()
    for seed in (5, 6):
        config = _group_config(seed=seed, signal="group-scaled", **shape)
        report = run_experiment(config)
        for rep in range(2):
            gen_group(config, rep)
    assert simlab._scaled_group_amplitude.cache_info().misses == 1
    auto = resolve_signal(_group_config(method="gf-slope", **shape))
    assert auto == report.extras["signal_value"]
    assert simlab._scaled_group_amplitude.cache_info().misses == 1
    resolve_signal(_group_config(group_scale_mode="mean-size", **shape))
    assert simlab._scaled_group_amplitude.cache_info().misses == 2


# ------------------------------------------------------------- generators


def test_gen_orthogonal_shape_and_determinism():
    c = _feature_config()
    data = gen_orthogonal(c, 2)
    assert data.design is None and data.partition is None
    assert len(data.truth) == c.t
    assert set(np.flatnonzero(data.beta)) == data.truth
    amp = resolve_signal(c)
    assert np.array_equal(data.beta[sorted(data.truth)], np.full(c.t, amp))
    assert data.stats is data.y
    again = gen_orthogonal(c, 2)
    assert np.array_equal(again.y, data.y) and again.truth == data.truth
    other = gen_orthogonal(c, 3)
    assert not np.array_equal(other.y, data.y)


def test_gen_orthogonal_pure_noise_when_t_zero():
    c = _feature_config(t=0)
    data = gen_orthogonal(c, 0)
    assert data.truth == set()
    assert np.array_equal(data.beta, np.zeros(40))
    assert abs(data.y.mean()) < 1.0


def test_gen_gaussian_unit_columns():
    c = ExperimentConfig(design="gaussian", method="f-slope", n=60, m=30, t=4,
                         replications=4, seed=9)
    data = gen_gaussian(c, 1)
    X = data.design.entries
    assert X.shape == (60, 30)
    assert np.allclose((X * X).sum(axis=0), 1.0, atol=1e-12)
    assert len(data.truth) == 4 and data.truth <= set(range(30))
    assert data.partition is None and data.stats is None
    assert np.array_equal(gen_gaussian(c, 1).design.entries, X)


def _dense_equicorr(n, rho):
    """The dense (whitener, root) pair, built as the package once built it."""
    lo, hi = 1.0 - rho, 1.0 - rho + n * rho

    def build(a, c):
        M = np.full((n, n), (c - a) / n)
        M[np.diag_indices(n)] += a
        return M

    return build(1.0 / math.sqrt(lo), 1.0 / math.sqrt(hi)), build(math.sqrt(lo), math.sqrt(hi))


def test_equicorr_matrices_invert_the_covariance():
    n, rho = 12, 0.5
    W, root = _equicorr_matrices(n, rho)
    eye = np.eye(n)
    cov = (1.0 - rho) * eye + rho * np.ones((n, n))
    # each operator applied to the columns of the identity
    assert np.allclose(root @ (root @ eye), cov, atol=1e-12)
    assert np.allclose(W @ (cov @ (W.T @ eye)), eye, atol=1e-12)
    assert W.T is W and root.shape == W.shape == (n, n)


def test_gen_correlated_means_whitens():
    c = ExperimentConfig(design="correlated-means", method="sd-kfwer", n=16, m=16,
                         t=3, replications=4, seed=11, rho=0.5)
    data = gen_correlated_means(c, 0)
    W = data.design @ np.eye(16)
    assert np.allclose(W, _dense_equicorr(16, 0.5)[0], rtol=0.0, atol=1e-15)
    assert np.allclose(data.y, W @ data.stats, atol=1e-12)
    assert data.partition is None
    # signal scaled so the effective per-column amplitude is the named one
    col = math.sqrt(float((W[:, 0] ** 2).sum()))
    amp = resolve_signal(c) / col
    assert np.allclose(data.beta[sorted(data.truth)], amp, atol=1e-12)
    # the whitened columns are deliberately not unit-norm
    assert abs(col - 1.0) > 0.1


@pytest.mark.parametrize("rho,seed", [(0.5, 11003), (0.2, 7), (0.9, 4207)])
def test_gen_correlated_means_matches_dense_products(rho, seed):
    # the generator before the operators: dense root @ z and W @ ybar, with mu
    # scaled by the whitener's column norm in the closed form operator_norm_sq
    # holds, which the dense first column reproduces to rounding
    c = ExperimentConfig(design="correlated-means", method="k-slope", n=1000, m=1000,
                         t=10, k=6, rho=rho, seed=seed, replications=3)
    W, root = _dense_equicorr(c.m, rho)
    col = math.sqrt(operator_norm_sq(_equicorr_matrices(c.m, rho)[0]))
    assert col == pytest.approx(math.sqrt(float((W[:, 0] * W[:, 0]).sum())), rel=1e-15)
    amp = resolve_signal(c) / col
    for rep in range(c.replications):
        rng = simlab._rep_rng(seed, rep)
        support = rng.choice(c.m, size=c.t, replace=False)
        mu_ref = np.zeros(c.m)
        mu_ref[support] = amp
        ybar_ref = mu_ref + c.sigma * (root @ rng.standard_normal(c.m))
        y_ref = W @ ybar_ref

        data = gen_correlated_means(c, rep)
        assert data.beta.tobytes() == mu_ref.tobytes()
        assert data.truth == {int(i) for i in support}
        # O(n) products round differently from the dense ones, by a few ulps
        # of the vector's largest entry
        for got, want in ((data.stats, ybar_ref), (data.y, y_ref)):
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_correlated_means_replication_allocates_no_dense_matrix():
    # a dense whitener and root at m=4000 would take 256 MB
    c = ExperimentConfig(design="correlated-means", method="k-slope", n=4000, m=4000,
                         t=20, k=6, replications=1, seed=3)
    _, schedule, _ = resolve_schedule(c)
    tracemalloc.start()
    try:
        data = gen_correlated_means(c, 0)
        fit = simlab.solve_slope(data.design, data.y, schedule, sigma=c.sigma)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert fit.converged
    assert peak < 4 * 2**20


def test_gen_group_image_norms_match_amplitude():
    c = _group_config(design="group-gaussian", n=50, correction="none")
    data = gen_group(c, 0)
    X, part, beta, relevant = data.design.entries, data.partition, data.beta, data.truth
    assert np.allclose((X * X).sum(axis=0), 1.0, atol=1e-12)
    assert len(relevant) == c.t and data.stats is None
    amp = resolve_signal(c)
    for g in relevant:
        idx = list(part.groups[g])
        norm = math.sqrt(float(((X[:, idx] @ beta[idx]) ** 2).sum()))
        assert norm == pytest.approx(amp * math.sqrt(len(idx)), rel=1e-12)
    silent = [g for g in range(c.num_groups) if g not in relevant]
    for g in silent:
        assert np.array_equal(beta[list(part.groups[g])], np.zeros(len(part.groups[g])))


def test_gen_group_orthogonal_uses_identity():
    data = gen_group(_group_config(), 1)
    assert data.design is None
    assert data.partition.num_features == 25 and len(data.partition) == 10


def test_group_orthogonal_run_allocates_no_dense_identity():
    # a size no other test uses, so no cache holds anything for it; a dense
    # 3000 x 3000 identity alone would take 72 MB.  Sizes 3..7 give unequal
    # weights, whose block norms are fitted on the O(t) operator diag(1/w)
    # rather than a dense 600 x 600 diagonal (2.9 MB; see the next test).
    for sizes in ((5,), (3, 4, 5, 6, 7)):
        config = ExperimentConfig(design="group-orthogonal", method="gk-slope", n=3000,
                                  m=3000, t=30, num_groups=600, group_sizes=sizes, k=5,
                                  replications=2, seed=31)
        tracemalloc.start()
        try:
            report = run_experiment(config)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report.converged.all()
        assert peak < 50 * 2**20


def test_group_orthogonal_unequal_weight_fit_allocates_no_dense_diagonal():
    # with the partition and schedule cached, a replication allocates O(m):
    # a few length-3000 vectors, where a dense 600 x 600 diag(1/w) for the
    # block-norm fit would take 2.9 MB
    config = ExperimentConfig(design="group-orthogonal", method="gk-slope", n=3000, m=3000,
                              t=30, num_groups=600, group_sizes=(3, 4, 5, 6, 7), k=5,
                              replications=2, seed=37)
    run_experiment(config)
    tracemalloc.start()
    try:
        report = run_experiment(config)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.converged.all()
    assert peak < 2**20


@pytest.mark.parametrize("design, n, m, extra", [
    ("gaussian", 600, 1200, dict(method="k-slope", t=10, k=2)),
    ("group-gaussian", 900, 900, dict(method="gk-slope", t=10, k=6, num_groups=180,
                                      group_sizes=(3, 4, 5, 6, 7))),
])
def test_gaussian_generation_allocates_one_design(design, n, m, extra):
    config = ExperimentConfig(design=design, n=n, m=m, replications=1, seed=41, **extra)
    gen = gen_gaussian if design == "gaussian" else gen_group
    gen(config, 0)  # warm gen_group's partition cache
    tracemalloc.start()
    try:
        out = gen(config, 0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert out.design.shape == (n, m)
    assert peak < 1.1 * 8 * n * m


@pytest.mark.parametrize("design, extra", [
    ("gaussian", dict(method="k-slope", n=30, m=50, t=4, k=2)),
    ("group-gaussian", dict(method="gk-slope", n=40, m=25, t=3, k=2, num_groups=10,
                            group_sizes=(2, 3))),
])
def test_signal_draw_continues_from_the_state_the_design_draw_leaves(design, extra):
    # cells that share a design draw it once and run each signal draw from a
    # copy of the generator state after it; that must give gen_*'s bytes
    gen, signal = ((gen_gaussian, simlab._feature_signal) if design == "gaussian"
                   else (gen_group, simlab._group_signal))
    for seed, rep in ((0, 0), (3, 1), (11009, 5)):
        config = ExperimentConfig(design=design, seed=seed, **extra)
        rng = simlab._rep_rng(seed, rep)
        X = simlab._design(config, rng)
        state = rng.bit_generator.state
        want = gen(config, rep)
        for _ in range(2):
            replay = np.random.default_rng(0)
            replay.bit_generator.state = state
            got = signal(config, replay, X)
            assert got.design.entries.tobytes() == want.design.entries.tobytes()
            assert got.beta.tobytes() == want.beta.tobytes()
            assert got.y.tobytes() == want.y.tobytes()
            assert got.truth == want.truth


@pytest.mark.parametrize("extra", [
    dict(design="gaussian", method="k-slope", n=40, m=60, t=4, k=2),
    dict(design="gaussian", method="f-slope", n=40, m=30, t=3, correction="monte-carlo",
         mc_replicates=5),
    dict(design="group-gaussian", method="gk-slope", n=40, m=25, t=3, k=2, num_groups=10,
         group_sizes=(2, 3)),
], ids=["gaussian", "monte-carlo", "group-gaussian"])
def test_a_drawn_design_is_checked_once_per_replication(monkeypatch, extra):
    # _design wraps the draw; the signal draw, the Monte Carlo correction,
    # the QR and the fit read that DesignMatrix as it is
    config = ExperimentConfig(replications=3, seed=7, **extra)
    mode, payload, _ = resolve_schedule(config)
    checks = []
    post_init = DesignMatrix.__post_init__
    monkeypatch.setattr(DesignMatrix, "__post_init__",
                        lambda self: checks.append(post_init(self)))
    for rep in range(config.replications):
        _rep_worker((config, rep, mode, payload))
    assert len(checks) == config.replications
    assert mode == ("mc" if config.correction == "monte-carlo" else "schedule")


def test_package_builds_no_dense_identity():
    src = Path(simlab.__file__).parent
    hits = [p.name for p in sorted(src.glob("*.py"))
            if re.search(r"np\.(eye|identity)\(", p.read_text())]
    assert hits == []


# --------------------------------------------------------- schedule routing


def test_resolve_schedule_stepdown_modes():
    c = _feature_config(method="sd-kfwer")
    mode, payload, prov = resolve_schedule(c)
    assert mode == "thresholds"
    assert np.array_equal(payload, kfwer_thresholds(40, c.k, c.alpha))
    assert prov["rule"] == "kfwer" and prov["type"] == "thresholds"
    mode, payload, prov = resolve_schedule(_feature_config(method="sd-fdp"))
    assert np.array_equal(payload, fdp_thresholds(40, 0.1, 0.1))
    assert prov["rule"] == "fdp"


def test_resolve_schedule_feature_rules():
    cases = [
        (_feature_config(method="slope-bh"), "BH"),
        (_feature_config(method="k-slope"), "kFWER"),
        (_feature_config(method="f-slope"), "FDP"),
        # the max-quantile baseline never receives a design correction
        (ExperimentConfig(design="gaussian", method="slope-bh", n=60, m=30, t=4), "BH"),
        (ExperimentConfig(design="gaussian", method="k-slope", n=60, m=30, t=4),
         "kFWER-Gaussian"),
        (ExperimentConfig(design="gaussian", method="f-slope", n=60, m=30, t=4,
                          correction="gaussian"), "FDP-Gaussian"),
        (ExperimentConfig(design="gaussian", method="k-slope", n=60, m=30, t=4,
                          correction="none"), "kFWER"),
        (ExperimentConfig(design="correlated-means", method="f-slope", n=30, m=30,
                          t=4), "FDP"),
    ]
    for config, rule in cases:
        mode, payload, prov = resolve_schedule(config)
        assert mode == "schedule", config.method
        assert payload.rule == rule
        assert prov["rule"] == rule
        json.dumps(prov)


def test_resolve_schedule_monte_carlo_mode():
    c = ExperimentConfig(design="gaussian", method="k-slope", n=60, m=30, t=4,
                         correction="monte-carlo", mc_replicates=32)
    mode, payload, prov = resolve_schedule(c)
    assert mode == "mc"
    assert payload.rule == "kFWER"
    assert prov["type"] == "monte-carlo"
    assert prov["params"]["replicates"] == 32
    json.dumps(prov)


def test_resolve_schedule_group_rules():
    cases = [
        (_group_config(method="slope-bh"), "group-max-FDR"),
        (_group_config(), "group-kFWER"),
        (_group_config(method="gf-slope"), "group-FDP"),
        (_group_config(design="group-gaussian", n=50), "group-kFWER-corrected"),
        (_group_config(design="group-gaussian", n=50, method="gf-slope"),
         "group-FDP-corrected"),
        (_group_config(design="group-gaussian", n=50, correction="none"),
         "group-kFWER"),
        (_group_config(design="group-gaussian", n=50, method="slope-bh"),
         "group-max-FDR"),
    ]
    for config, rule in cases:
        mode, payload, prov = resolve_schedule(config)
        assert mode == "schedule"
        assert payload.rule == rule
        assert len(payload.values) == config.num_groups
        json.dumps(prov)


# refusal fragments of the applicability matrix
_FIXED = "does not apply to design"
_NEEDS_GROUPS = "requires a group design"
_NOT_GROUPED = "does not apply to group designs"
_MARGINAL = "needs marginal statistics; it runs on the orthogonal-identity and " \
            "correlated-means designs only"
_NO_MC = "monte-carlo correction applies to feature designs only"

# (design, method) -> outcome under corrections auto, none, gaussian, monte-carlo:
# resolve_schedule's (mode, rule, provenance has k), or the refusal's fragment
_APPLICABILITY = {
    ("orthogonal-identity", "slope-bh"):
        (("schedule", "BH", False), ("schedule", "BH", False), _FIXED, _FIXED),
    ("orthogonal-identity", "k-slope"):
        (("schedule", "kFWER", True), ("schedule", "kFWER", True), _FIXED, _FIXED),
    ("orthogonal-identity", "f-slope"):
        (("schedule", "FDP", False), ("schedule", "FDP", False), _FIXED, _FIXED),
    ("orthogonal-identity", "sd-kfwer"):
        (("thresholds", "kfwer", True), ("thresholds", "kfwer", True), _FIXED, _FIXED),
    ("orthogonal-identity", "sd-fdp"):
        (("thresholds", "fdp", False), ("thresholds", "fdp", False), _FIXED, _FIXED),
    ("orthogonal-identity", "gk-slope"): (_NEEDS_GROUPS,) * 4,
    ("orthogonal-identity", "gf-slope"): (_NEEDS_GROUPS,) * 4,
    ("gaussian", "slope-bh"):
        (("schedule", "BH", False), ("schedule", "BH", False),
         ("schedule", "BH", False), ("schedule", "BH", False)),
    ("gaussian", "k-slope"):
        (("schedule", "kFWER-Gaussian", True), ("schedule", "kFWER", True),
         ("schedule", "kFWER-Gaussian", True), ("mc", "kFWER", True)),
    ("gaussian", "f-slope"):
        (("schedule", "FDP-Gaussian", False), ("schedule", "FDP", False),
         ("schedule", "FDP-Gaussian", False), ("mc", "FDP", False)),
    ("gaussian", "sd-kfwer"): (_MARGINAL,) * 4,
    ("gaussian", "sd-fdp"): (_MARGINAL,) * 4,
    ("gaussian", "gk-slope"): (_NEEDS_GROUPS,) * 4,
    ("gaussian", "gf-slope"): (_NEEDS_GROUPS,) * 4,
    ("correlated-means", "slope-bh"):
        (("schedule", "BH", False), ("schedule", "BH", False), _FIXED, _FIXED),
    ("correlated-means", "k-slope"):
        (("schedule", "kFWER", True), ("schedule", "kFWER", True), _FIXED, _FIXED),
    ("correlated-means", "f-slope"):
        (("schedule", "FDP", False), ("schedule", "FDP", False), _FIXED, _FIXED),
    ("correlated-means", "sd-kfwer"):
        (("thresholds", "kfwer", True), ("thresholds", "kfwer", True), _FIXED, _FIXED),
    ("correlated-means", "sd-fdp"):
        (("thresholds", "fdp", False), ("thresholds", "fdp", False), _FIXED, _FIXED),
    ("correlated-means", "gk-slope"): (_NEEDS_GROUPS,) * 4,
    ("correlated-means", "gf-slope"): (_NEEDS_GROUPS,) * 4,
    ("group-orthogonal", "slope-bh"):
        (("schedule", "group-max-FDR", False), ("schedule", "group-max-FDR", False),
         _FIXED, _NO_MC),
    ("group-orthogonal", "k-slope"): (_NOT_GROUPED,) * 4,
    ("group-orthogonal", "f-slope"): (_NOT_GROUPED,) * 4,
    ("group-orthogonal", "sd-kfwer"): (_NOT_GROUPED,) * 4,
    ("group-orthogonal", "sd-fdp"): (_NOT_GROUPED,) * 4,
    ("group-orthogonal", "gk-slope"):
        (("schedule", "group-kFWER", True), ("schedule", "group-kFWER", True),
         _FIXED, _NO_MC),
    ("group-orthogonal", "gf-slope"):
        (("schedule", "group-FDP", False), ("schedule", "group-FDP", False),
         _FIXED, _NO_MC),
    ("group-gaussian", "slope-bh"):
        (("schedule", "group-max-FDR", False), ("schedule", "group-max-FDR", False),
         ("schedule", "group-max-FDR", False), _NO_MC),
    ("group-gaussian", "k-slope"): (_NOT_GROUPED,) * 4,
    ("group-gaussian", "f-slope"): (_NOT_GROUPED,) * 4,
    ("group-gaussian", "sd-kfwer"): (_NOT_GROUPED,) * 4,
    ("group-gaussian", "sd-fdp"): (_NOT_GROUPED,) * 4,
    ("group-gaussian", "gk-slope"):
        (("schedule", "group-kFWER-corrected", True), ("schedule", "group-kFWER", True),
         ("schedule", "group-kFWER-corrected", True), _NO_MC),
    ("group-gaussian", "gf-slope"):
        (("schedule", "group-FDP-corrected", False), ("schedule", "group-FDP", False),
         ("schedule", "group-FDP-corrected", False), _NO_MC),
}
_MATRIX_CORRECTIONS = ("auto", "none", "gaussian", "monte-carlo")
_MATRIX_CASES = [
    (design, method, correction, outcome)
    for (design, method), outcomes in _APPLICABILITY.items()
    for correction, outcome in zip(_MATRIX_CORRECTIONS, outcomes)
]


def test_applicability_matrix_covers_every_combination():
    designs = {d for d, _ in _APPLICABILITY}
    methods = {m for _, m in _APPLICABILITY}
    assert (len(designs), len(methods)) == (5, 7)
    assert set(_APPLICABILITY) == set(itertools.product(designs, methods))
    assert len(_MATRIX_CASES) == 140
    accepted = [case for case in _MATRIX_CASES if isinstance(case[3], tuple)]
    assert len(accepted) == 47


@pytest.mark.parametrize("design,method,correction,outcome", _MATRIX_CASES)
def test_applicability_matrix(design, method, correction, outcome):
    make = _group_config if design.startswith("group-") else _feature_config
    kw = dict(design=design, method=method, correction=correction)
    if isinstance(outcome, str):
        with pytest.raises(ValueError, match=re.escape(outcome)):
            make(**kw)
        return
    mode, _, prov = resolve_schedule(make(**kw))
    assert (mode, prov["rule"], "k" in prov["params"]) == outcome


# ------------------------------------------------------------- experiments


def test_run_experiment_is_deterministic():
    c = _feature_config()
    a = run_experiment(c)
    b = run_experiment(c)
    for name in ("v", "r", "tp", "fdp", "k_hit", "fdp_exceeds", "power", "converged"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name
    assert a.aggregates == b.aggregates
    assert a.extras["signal_value"] == resolve_signal(c)
    assert a.extras["all_converged"] is True


def test_run_experiment_threads_do_not_change_numbers():
    c = ExperimentConfig(design="gaussian", method="f-slope", n=50, m=25, t=3,
                         replications=6, seed=21)
    inline = run_experiment(c, threads=1)
    pooled = run_experiment(c, threads=2)
    for name in ("v", "r", "tp", "fdp", "power"):
        assert np.array_equal(getattr(inline, name), getattr(pooled, name)), name
    assert inline.aggregates == pooled.aggregates


def test_run_experiment_aggregates_match_arrays():
    report = run_experiment(_feature_config(replications=12))
    assert report.v.shape == (12,)
    est, se = report.aggregates["kfwer"]
    assert est == pytest.approx(report.k_hit.mean())
    assert report.aggregates["fdr"][0] == pytest.approx(report.fdp.mean())
    assert report.aggregates["power"][0] == pytest.approx(report.power.mean())
    assert report.aggregates["prob_fdp"][0] == pytest.approx(report.fdp_exceeds.mean())
    hit = (report.v >= report.config.k).astype(float)
    assert se == pytest.approx(math.sqrt(hit.var() / hit.size))
    assert report.kfwer_at(report.config.k) == report.aggregates["kfwer"]
    assert report.kfwer_at(1)[0] >= est


def test_run_experiment_pure_noise_power_is_vacuous():
    report = run_experiment(_feature_config(t=0, replications=6))
    assert report.aggregates["power"] == (1.0, 0.0)
    assert np.array_equal(report.tp, np.zeros(6))


def test_run_experiment_group_design():
    report = run_experiment(_group_config())
    assert report.v.shape == (4,)
    assert report.extras["signal_value"] == resolve_signal(_group_config())
    assert report.extras["group_scale_mode"] == "per-class"
    assert report.extras["schedule"]["rule"] == "group-kFWER"


def test_run_experiment_rejects_bad_threads():
    with pytest.raises(ValueError, match="threads must be a positive integer"):
        run_experiment(_feature_config(), threads=0)


def test_failed_replication_names_its_position():
    c = _feature_config(seed=7)
    with pytest.raises(Exception, match=r"replication 3 \(base seed 7\)"):
        _rep_worker((c, 3, "schedule", None))


# ---------------------------------------------------------------- reports


def test_report_csv_layout(tmp_path):
    c = _feature_config(replications=5)
    report = run_experiment(c)
    path = tmp_path / "summary.csv"
    write_report_csv([report], path)
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 4
    assert [r["metric"] for r in rows] == ["kfwer", "prob_fdp", "fdr", "power"]
    for row in rows:
        assert row["config_id"] == c.config_id()
        assert row["design"] == c.design and row["method"] == c.method
        assert int(row["replications"]) == 5
        est, se = report.aggregates[row["metric"]]
        assert float(row["estimate"]) == est
        assert float(row["se"]) == se
    assert float(rows[0]["signal"]) == report.extras["signal_value"]


def test_details_json_round_trip(tmp_path):
    c = _group_config()
    report = run_experiment(c)
    path = tmp_path / "details.json"
    write_details_json([report], path)
    doc = json.loads(path.read_text())
    (entry,) = doc["reports"]
    assert ExperimentConfig.from_dict(entry["config"]) == c
    assert entry["config_id"] == c.config_id()
    reps = entry["replications"]
    for key in ("v", "r", "tp", "fdp", "k_hit", "fdp_exceeds", "power", "converged"):
        assert len(reps[key]) == c.replications
    assert reps["v"] == report.v.tolist()
    agg = entry["aggregates"]["fdr"]
    assert (agg["estimate"], agg["se"]) == report.aggregates["fdr"]


def test_report_files_are_byte_stable(tmp_path):
    report = run_experiment(_feature_config(replications=5))
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_report_csv([report], a)
    write_report_csv([report], b)
    assert a.read_bytes() == b.read_bytes()
    ja, jb = tmp_path / "a.json", tmp_path / "b.json"
    write_details_json([report], ja)
    write_details_json([report], jb)
    assert ja.read_bytes() == jb.read_bytes()


@pytest.mark.parametrize("kind", ["partition", "standardized", "schedule", "design", "report"])
def test_array_holding_records_compare_and_hash_by_identity(kind):
    # the generated __eq__ compared ndarray fields: == between two equal
    # records raised on the ambiguous truth value, and hash() raised
    make = {"partition": lambda: GroupPartition.from_sizes((2, 2)),
            "standardized": lambda: standardize(np.eye(4), GroupPartition.from_sizes((2, 2))),
            "schedule": lambda: bh_schedule(4, 0.1),
            "design": lambda: DesignMatrix(np.eye(4)),
            "report": lambda: run_experiment(_group_config(replications=2))}[kind]
    a, b = make(), make()
    assert (a == a) is True and (a == b) is False and (a != b) is True
    assert len({a, b, a}) == 2
