"""End-to-end acceptance gate.

One test per numbered criterion, with the tolerance and the runtime budget
pinned in the assertion itself.  Criterion 7 is split so the selection-error
bounds and the power bound report separately, and criterion 11 so the k-FWER
and FDP cells of the correlated-means design do.  Criterion 11 fails today
and is a strict xfail until the design is fixed (ROADMAP item 11).

No fixed power floor is asserted for the group methods.  On the criterion-7
cell (group-orthogonal, 180 null groups with ||y_g||^2 ~ chi^2_5 and 20
relevant ones with noncentral chi^2_5(19.09)), the best single threshold
on ||y_g|| that keeps Prob(V >= 5) <= 0.1 has power 0.859, and the best one
that keeps Prob(FDP > 0.1) <= 0.1 has power 0.727.  Both ceilings come from
scipy.stats chi^2 tails and exact binomial sums over a grid of thresholds;
a 0.9 floor is out of reach for any rule that holds those levels.  What the
construction does guarantee is power at least that of the stepdown rule at
the same critical values: under an orthogonal design with equal group
weights the sorted-L1 selection contains the stepdown rejections (Bogdan
et al., SLOPE, Ann. Appl. Stat. 2015, in its group form), and that is what
the power test checks, replication by replication.

Under the global null on the identity design the sorted-L1 selection count
R lies between the step-down and step-up counts at the schedule's p-levels,
so each null cell's error rate is checked against the exact bracket
[P(R_SD >= k), P(R_SU >= k)] of tests/oracles.null_rejection_probability.
"""
import json
import math
import time
from importlib import resources

import numpy as np
import pytest
from click.testing import CliRunner
from scipy.stats import binom

from stepslope.cli import main
from stepslope.groups import GroupPartition, solve_group_slope
from stepslope.schedules import bh_schedule, kfwer_schedule
from stepslope.simlab import (
    ExperimentConfig,
    gen_group,
    resolve_schedule,
    run_experiment,
)
from stepslope.solver import DesignMatrix, solve_slope
from stepslope.sorted_l1 import prox_sorted_l1
from stepslope.stepdown import fdp_thresholds, kfwer_thresholds, stepdown_reject

from oracles import (
    normal_quantile_bisect,
    null_rejection_probability,
    prox_enum,
    stepdown_bruteforce,
)


def test_criterion_01_prox_matches_bruteforce_oracle():
    rng = np.random.default_rng(101)
    start = time.monotonic()
    for trial in range(500):
        m = int(rng.integers(1, 7))
        scale = 10.0 ** rng.integers(-1, 3)
        v = scale * rng.normal(size=m)
        if trial % 5 == 0:
            # exercise ties and exact zeros, where pooling decisions bind
            v = np.round(v)
        lam = np.sort(np.abs(rng.normal(size=m)))[::-1] * scale
        if trial % 7 == 0:
            lam[m // 2:] = lam[m // 2] if m > 1 else lam[0]
        got = prox_sorted_l1(v, lam)
        want = prox_enum(v, lam)
        assert np.max(np.abs(got - want)) <= 1e-6 * max(1.0, scale)
    assert time.monotonic() - start < 30.0


def test_criterion_02_stepdown_matches_exhaustive_search():
    rng = np.random.default_rng(202)
    start = time.monotonic()
    for trial in range(10_000):
        m = int(rng.integers(1, 13))
        p = rng.uniform(size=m)
        if trial % 3 == 0:
            p = np.round(p, 1)
        style = trial % 3
        if style == 0:
            thr = kfwer_thresholds(m, int(rng.integers(1, m + 1)), 0.1)
        elif style == 1:
            thr = fdp_thresholds(m, 0.1, float(rng.uniform(0.05, 0.5)))
        else:
            thr = np.sort(rng.uniform(size=m))
        assert stepdown_reject(p, thr) == stepdown_bruteforce(p, thr)
    assert time.monotonic() - start < 10.0


def test_criterion_03_schedule_spot_values():
    bh = bh_schedule(1000, 0.1)
    assert abs(bh.values[0] - 3.890592) <= 1e-5
    assert bh.values[0] == pytest.approx(
        normal_quantile_bisect(1.0 - 0.1 / 2000.0), abs=1e-10
    )
    kf = kfwer_schedule(1000, 5, 0.1)
    assert abs(kf.values[0] - 3.480756) <= 1e-5
    assert kf.values[0] == pytest.approx(
        normal_quantile_bisect(1.0 - 5 * 0.1 / 2000.0), abs=1e-10
    )


def test_criterion_04_orthogonal_kfwer_control():
    config = ExperimentConfig(
        design="orthogonal-identity", method="k-slope", n=500, m=500, t=25,
        k=5, alpha=0.1, replications=400, seed=4201,
    )
    start = time.monotonic()
    report = run_experiment(config)
    elapsed = time.monotonic() - start
    kfwer = report.aggregates["kfwer"][0]
    slack = 0.1 + 3.0 * np.sqrt(0.1 * 0.9 / 400.0)
    assert kfwer <= slack
    assert kfwer <= 0.05
    assert elapsed < 300.0


def test_criterion_05_orthogonal_fdp_control_and_power():
    config = ExperimentConfig(
        design="orthogonal-identity", method="f-slope", n=500, m=500, t=25,
        alpha=0.1, gamma=0.1, replications=400, seed=4202,
    )
    start = time.monotonic()
    report = run_experiment(config)
    elapsed = time.monotonic() - start
    assert report.aggregates["prob_fdp"][0] <= 0.05
    assert report.aggregates["fdr"][0] <= 0.02
    assert report.aggregates["power"][0] >= 0.98
    assert elapsed < 300.0


@pytest.mark.parametrize("method, k", [("k-slope", 2), ("f-slope", 1)])
def test_orthogonal_global_null_lies_in_the_exact_stepdown_stepup_bracket(method, k):
    # t = 0: every selection is false, so k-slope's V >= 2 is R >= 2 and
    # f-slope's FDP > gamma is R >= 1
    config = ExperimentConfig(
        design="orthogonal-identity", method=method, n=200, m=200, t=0, k=2,
        alpha=0.1, gamma=0.1, replications=4000, seed=4212,
    )
    mode, schedule, _ = resolve_schedule(config)
    assert mode == "schedule"
    levels = [math.erfc(x / math.sqrt(2.0)) for x in schedule.values.tolist()]
    low = float(null_rejection_probability(levels, config.m, k, "step-down"))
    high = float(null_rejection_probability(levels, config.m, k, "step-up"))
    start = time.monotonic()
    report = run_experiment(config)
    assert time.monotonic() - start < 10.0
    hits = int((report.k_hit if method == "k-slope" else report.fdp_exceeds).sum())
    # one-sided 99% binomial limits on each side of the bracket
    n = config.replications
    assert binom.ppf(0.01, n, low) <= hits <= binom.ppf(0.99, n, high), (hits, low, high)


def test_criterion_06_singleton_groups_reduce_to_feature_fit():
    for seed in range(50):
        rng = np.random.default_rng(seed)
        m = 20
        if seed % 2 == 0:
            X = np.eye(m)
        else:
            X = rng.normal(size=(30, m))
            X /= np.sqrt((X * X).sum(axis=0))
        beta = np.zeros(m)
        beta[rng.choice(m, size=4, replace=False)] = 3.0
        y = X @ beta + rng.standard_normal(X.shape[0])
        lam = bh_schedule(m, 0.25).values
        design = DesignMatrix(X)
        flat = solve_slope(design, y, lam, tol=1e-10)
        part = GroupPartition.from_sizes([1] * m, np.ones(m))
        grouped = solve_group_slope(design, y, part, lam, tol=1e-10)
        assert set(np.flatnonzero(grouped.beta)) == flat.support, seed
        assert np.max(np.abs(grouped.beta - flat.beta)) <= 1e-8, seed


@pytest.fixture(scope="module")
def group_desk_reports():
    base = dict(design="group-orthogonal", n=1000, m=1000, t=20, num_groups=200,
                group_sizes=(5,), replications=200, seed=4207)
    start = time.monotonic()
    gk = run_experiment(ExperimentConfig(method="gk-slope", k=5, alpha=0.1, **base))
    gf = run_experiment(ExperimentConfig(method="gf-slope", alpha=0.1, gamma=0.1, **base))
    return gk, gf, time.monotonic() - start


def test_criterion_07_group_error_control(group_desk_reports):
    gk, gf, elapsed = group_desk_reports
    assert gk.aggregates["kfwer"][0] <= 0.15
    assert gf.aggregates["prob_fdp"][0] <= 0.1
    assert elapsed < 600.0


def _stepdown_counts(stats, crit, truth):
    """(r, tp) of the stepdown rule: reject the r largest statistics, r the
    largest count whose i-th largest statistic exceeds crit[i-1] for every
    i <= r."""
    order = np.argsort(-stats, kind="stable")
    clears = stats[order] > crit
    r = int(clears.size if clears.all() else np.argmin(clears))
    return r, len(truth & {int(g) for g in order[:r]})


def test_criterion_07_group_power(group_desk_reports):
    # Orthogonal design, equal weights: in every replication the fit selects
    # at least the stepdown rejections on the group norms ||y_g|| at its own
    # critical values sigma * w * lambda.
    gk, gf, _ = group_desk_reports
    for report in (gk, gf):
        config = report.config
        w = config.partition().weights
        assert np.all(w == w[0])
        _, schedule, _ = resolve_schedule(config)
        crit = config.sigma * w * schedule.values
        for rep in range(config.replications):
            data = gen_group(config, rep)
            norms = np.array([np.linalg.norm(data.y[list(g)])
                              for g in data.partition.groups])
            r, tp = _stepdown_counts(norms, crit, data.truth)
            assert report.r[rep] >= r, (config.method, rep)
            assert report.tp[rep] >= tp, (config.method, rep)


def test_criterion_08_gaussian_corrected_fdp_control():
    config = ExperimentConfig(
        design="gaussian", method="f-slope", n=1000, m=500, t=20,
        signal="moderate", alpha=0.1, gamma=0.1, replications=200, seed=4208,
    )
    start = time.monotonic()
    report = run_experiment(config)
    elapsed = time.monotonic() - start
    assert report.extras["schedule"]["rule"] == "FDP-Gaussian"
    assert report.aggregates["fdr"][0] <= 0.15
    assert report.aggregates["prob_fdp"][0] <= 0.1
    assert elapsed < 600.0


def _table3_cell(method):
    doc = json.loads(resources.files("stepslope").joinpath("presets/table3.json").read_text())
    (d,) = [d for d in doc["experiments"] if d["method"] == method and d["t"] == 10]
    # the preset cell at 200 replications in place of 100
    return ExperimentConfig.from_dict(dict(d, replications=200))


_ITEM_11 = ("ROADMAP item 11: gen_correlated_means returns the whitener as the design, "
            "with column norms ~1.41, not 1, so every schedule entry acts as ~0.71 of itself "
            "and the table3 sorted-L1 cells lose their level (0.98-1.00 at 100 reps)")


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=_ITEM_11)
def test_criterion_11_correlated_means_kfwer_control():
    config = _table3_cell("k-slope")
    assert (config.k, config.alpha) == (6, 0.1)
    start = time.monotonic()
    report = run_experiment(config)
    assert time.monotonic() - start < 120.0
    hits = int(report.k_hit.sum())
    # one-sided 99% binomial limit: a cell at its level exceeds it in <= 1% of runs
    assert hits <= binom.ppf(0.99, config.replications, config.alpha), hits


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=_ITEM_11)
def test_criterion_11_correlated_means_fdp_control():
    config = _table3_cell("f-slope")
    assert (config.alpha, config.gamma) == (0.1, 0.1)
    start = time.monotonic()
    report = run_experiment(config)
    assert time.monotonic() - start < 120.0
    exceed = int(report.fdp_exceeds.sum())
    assert exceed <= binom.ppf(0.99, config.replications, config.alpha), exceed


def test_criterion_09_full_scale_orthogonal_table():
    doc = json.loads(
        resources.files("stepslope").joinpath("presets/table2.json").read_text()
    )
    picked = [d for d in doc["experiments"] if d["t"] in (50, 100)]
    assert len(picked) == 4
    start = time.monotonic()
    for d in picked:
        config = ExperimentConfig.from_dict(d)
        assert config.n == config.m == 1000
        assert config.replications == 100
        report = run_experiment(config)
        label = f"{config.method} t={config.t}"
        assert report.aggregates["fdr"][0] <= 0.007 + 0.01, label
        assert report.aggregates["power"][0] >= 0.99, label
    assert time.monotonic() - start < 1800.0


def test_criterion_10_preset_reports_are_byte_identical(tmp_path):
    runner = CliRunner()
    outputs = []
    for root in ("first", "second"):
        res = runner.invoke(
            main,
            ["simulate", "--preset", "table2", "--reps", "2", "--threads", "1",
             "--out", str(tmp_path / root)],
            catch_exceptions=False,
        )
        assert res.exit_code == 0
        run_id = res.output.strip().split()[1].rstrip(":")
        run_dir = tmp_path / root / run_id
        outputs.append(
            (
                (run_dir / "report.csv").read_bytes(),
                (run_dir / "details.json").read_bytes(),
            )
        )
    assert outputs[0] == outputs[1]
