"""Command line surface: argument handling, file formats, exit codes."""
import dataclasses
import hashlib
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from stepslope import cli
from stepslope.cli import main
from stepslope.groups import GroupPartition, solve_group_slope, standardize
from stepslope.schedules import (
    _RULE_TABLE,
    bh_schedule,
    gk_schedule,
    kfwer_schedule,
    monte_carlo_corrected_schedule,
    schedule_csv_text,
    schedule_json_text,
)
from stepslope.simlab import ExperimentConfig
from stepslope.solver import solve_slope
from stepslope.stepdown import kfwer_thresholds, stepdown_reject


@pytest.fixture()
def runner():
    return CliRunner()


def _write_csv(path, arr):
    np.savetxt(path, np.atleast_2d(arr), delimiter=",")
    return str(path)


def _invoke(runner, args):
    return runner.invoke(main, args, catch_exceptions=False)


# ----------------------------------------------------------------- lambda


def test_lambda_kfwer_csv_matches_library(runner):
    res = _invoke(runner, ["lambda", "--rule", "kfwer", "--m", "12", "--k", "3",
                           "--alpha", "0.1"])
    assert res.exit_code == 0
    assert res.output == schedule_csv_text(kfwer_schedule(12, 3, 0.1))
    lines = res.output.strip().split("\n")
    assert lines[0] == "index,value"
    assert len(lines) == 13
    assert lines[1].startswith("1,")


def test_lambda_bh_single_entry(runner):
    res = _invoke(runner, ["lambda", "--rule", "bh", "--m", "1", "--q", "0.1"])
    assert res.exit_code == 0
    assert float(res.output.strip().split("\n")[1].split(",")[1]) == (
        1.6448536269514724
    )


def test_lambda_json_output(runner, tmp_path):
    out = tmp_path / "sched.json"
    res = _invoke(runner, ["lambda", "--rule", "fdp", "--m", "9", "--alpha", "0.1",
                           "--gamma", "0.25", "--out", str(out)])
    assert res.exit_code == 0
    doc = json.loads(out.read_text())
    assert doc["rule"] == "FDP"
    assert doc["params"]["gamma"] == 0.25
    assert len(doc["values"]) == 9


def test_lambda_csv_file_equals_stdout(runner, tmp_path):
    out = tmp_path / "sched.csv"
    args = ["lambda", "--rule", "kfwer", "--m", "6", "--k", "2", "--alpha", "0.2"]
    piped = _invoke(runner, args)
    saved = _invoke(runner, args + ["--out", str(out)])
    assert saved.exit_code == 0
    assert out.read_text() == piped.output


def test_lambda_group_rule(runner):
    res = _invoke(runner, ["lambda", "--rule", "gk", "--k", "2", "--alpha", "0.1",
                           "--group-sizes", "2,2,3,3"])
    assert res.exit_code == 0
    w = tuple(np.sqrt([2.0, 2.0, 3.0, 3.0]))
    assert res.output == schedule_csv_text(gk_schedule(2, 0.1, (2, 2, 3, 3), w))


def test_lambda_monte_carlo_identity_equals_base(runner, tmp_path):
    design = _write_csv(tmp_path / "X.csv", np.eye(8))
    res = _invoke(runner, ["lambda", "--rule", "kfwer-monte-carlo", "--m", "8",
                           "--k", "2", "--alpha", "0.1", "--design", design,
                           "--replicates", "16", "--mc-seed", "4"])
    assert res.exit_code == 0
    # orthonormal columns carry no cross-interference to inflate
    base = kfwer_schedule(8, 2, 0.1)
    values = [float(line.split(",")[1]) for line in res.output.strip().split("\n")[1:]]
    assert np.array_equal(np.array(values), base.values)


def test_lambda_monte_carlo_records_mc_seed(runner, tmp_path):
    rng = np.random.default_rng(0)
    X = rng.standard_normal((20, 8))
    X /= np.linalg.norm(X, axis=0)
    design = _write_csv(tmp_path / "X.csv", X)
    out = tmp_path / "s.json"
    res = _invoke(runner, ["lambda", "--rule", "kfwer-monte-carlo", "--m", "8",
                           "--k", "2", "--alpha", "0.1", "--design", design,
                           "--replicates", "16", "--mc-seed", "4", "--out", str(out)])
    assert res.exit_code == 0
    doc = json.loads(out.read_text())
    assert doc["params"]["seed"] == 4 and doc["params"]["replicates"] == 16
    expected = monte_carlo_corrected_schedule(
        kfwer_schedule(8, 2, 0.1), np.loadtxt(design, delimiter=","), 16, seed=4
    )
    assert out.read_text() == schedule_json_text(expected)


@pytest.mark.parametrize(
    "args,fragment",
    [
        (["lambda", "--rule", "ridge", "--m", "4"], "unknown rule"),
        (["lambda", "--rule", "gk", "--k", "1", "--alpha", "0.1"],
         "requires --group-sizes"),
        (["lambda", "--rule", "bh", "--m", "4", "--q", "0.1",
          "--group-sizes", "2,2"], "does not apply to rule"),
        (["lambda", "--rule", "kfwer-monte-carlo", "--m", "4", "--k", "1",
          "--alpha", "0.1"], "requires --design"),
        (["lambda", "--rule", "kfwer", "--m", "4", "--k", "2", "--alpha", "1.5"],
         "alpha must lie strictly inside"),
        (["lambda", "--rule", "group-fdp", "--alpha", "0.1", "--gamma", "0.1",
          "--group-sizes", "2,0"], "must be positive integers"),
    ],
)
def test_lambda_usage_errors(runner, args, fragment):
    res = runner.invoke(main, args)
    assert res.exit_code == 2
    assert fragment in res.output


def test_lambda_weight_scheme_refused_on_feature_rule(runner):
    res = runner.invoke(main, ["lambda", "--rule", "bh", "--m", "3", "--q", "0.1",
                               "--weight-scheme", "inv-sqrt"])
    assert res.exit_code == 2
    assert "--weight-scheme does not apply to rule bh" in res.output


def test_every_rule_alias_resolves_and_is_listed(runner):
    from stepslope.schedules import _RULE_TABLE

    listing = runner.invoke(main, ["lambda", "--rule", "ridge"]).output
    helps = [
        p.help for cmd in ("lambda", "solve") for p in main.commands[cmd].params
        if p.name == "rule"
    ]
    for row in _RULE_TABLE.values():
        for alias in row.aliases:
            # a rule's parameters are all missing here, so a resolved alias
            # fails on the first one the rule requires, not as unknown
            res = runner.invoke(main, ["lambda", "--rule", alias.upper()])
            assert res.exit_code == 2
            assert "unknown rule" not in res.output and "requires" in res.output
            assert f" {alias}," in listing or listing.rstrip().endswith(f" {alias}")
            assert all(f" {alias}," in h or f" {alias}." in h for h in helps)


def test_lambda_design_on_plain_rule_rejected(runner, tmp_path):
    design = _write_csv(tmp_path / "X.csv", np.eye(3))
    res = runner.invoke(main, ["lambda", "--rule", "bh", "--m", "3", "--q", "0.1",
                               "--design", design])
    assert res.exit_code == 2
    assert "monte-carlo rules" in res.output


def test_lambda_numerical_failure_exits_1(runner, tmp_path):
    design = _write_csv(tmp_path / "zero.csv", np.zeros((6, 4)))
    res = runner.invoke(main, ["lambda", "--rule", "kfwer-monte-carlo", "--m", "4",
                               "--k", "1", "--alpha", "0.1", "--design", design,
                               "--replicates", "8"])
    assert res.exit_code == 1
    assert "numerical failure" in res.output


# ------------------------------------------------------------------ solve


def _identity_problem(tmp_path, m=6, seed=0):
    rng = np.random.default_rng(seed)
    design = _write_csv(tmp_path / "X.csv", np.eye(m))
    y = rng.normal(size=m)
    response = str(tmp_path / "y.csv")
    np.savetxt(response, y, delimiter=",")
    return design, response, y


def test_solve_identity_zero_schedule_returns_response(runner, tmp_path):
    design, response, y = _identity_problem(tmp_path)
    sched = tmp_path / "zero.csv"
    sched.write_text("index,value\n" + "".join(f"{i + 1},0.0\n" for i in range(6)))
    res = _invoke(runner, ["solve", "--design", design, "--response", response,
                           "--schedule", str(sched)])
    assert res.exit_code == 0
    doc = json.loads(res.output)
    assert doc["n"] == 6 and doc["m"] == 6
    assert np.allclose(doc["beta"], y, atol=0)
    assert doc["iterations"] == 1
    assert doc["final_gap"] == 0.0
    assert doc["converged"] is True


def test_solve_inline_rule_matches_schedule_file(runner, tmp_path):
    design, response, _ = _identity_problem(tmp_path, seed=3)
    sched = tmp_path / "bh.csv"
    sched.write_text(schedule_csv_text(bh_schedule(6, 0.2)))
    by_file = _invoke(runner, ["solve", "--design", design, "--response", response,
                               "--schedule", str(sched)])
    by_rule = _invoke(runner, ["solve", "--design", design, "--response", response,
                               "--rule", "bh", "--q", "0.2"])
    assert by_file.exit_code == 0 and by_rule.exit_code == 0
    assert json.loads(by_file.output) == json.loads(by_rule.output)


def test_solve_json_schedule_file(runner, tmp_path):
    design, response, _ = _identity_problem(tmp_path, seed=8)
    sched = tmp_path / "bh.json"
    sched.write_text(schedule_json_text(bh_schedule(6, 0.2)))
    out = tmp_path / "fit.json"
    res = _invoke(runner, ["solve", "--design", design, "--response", response,
                           "--schedule", str(sched), "--out", str(out)])
    assert res.exit_code == 0
    doc = json.loads(out.read_text())
    assert set(doc) == {"n", "m", "beta", "support", "iterations", "restarts", "backoffs",
                        "matvecs", "rounds", "full_matvecs", "final_gap", "objective",
                        "converged"}
    assert doc["support"] == sorted(i for i, b in enumerate(doc["beta"]) if b != 0.0)


@pytest.mark.parametrize("doc, fragment", [
    (None, "expected a JSON object, got NoneType"),
    ({"rule": "BH", "params": [1, 2], "values": [1.0]}, "params must be a JSON object"),
    ({"rule": "BH", "params": {}, "values": {"a": 1}}, "values must be a list of numbers"),
    ({"rule": "BH", "params": {}, "values": [True, False]}, "values must be a list of numbers"),
    ({"rule": "BH", "params": {}, "values": ["3", "1"]}, "values must be a list of numbers"),
    ({"rule": "BH", "params": {}, "values": []}, "schedule needs at least one entry"),
    ({"rule": "BH", "params": {}, "values": [1.0, float("nan")]}, "sorted-L1 weights must be"),
    ({"rule": "BH", "params": {}, "values": [1.0, 2.0]}, "sorted-L1 weights must be"),
    ({"rule": "BH", "params": {}, "values": [10**400]}, "int too large to convert"),
], ids=["null", "params-list", "values-object", "values-bools", "values-strings",
        "values-empty", "values-nan", "values-rise", "values-int-overflow"])
def test_solve_malformed_json_schedule_exits_2_naming_the_file(runner, tmp_path, doc,
                                                                fragment):
    design, response, _ = _identity_problem(tmp_path)
    sched = tmp_path / "bad.json"
    sched.write_text(json.dumps(doc))
    res = runner.invoke(main, ["solve", "--design", design, "--response", response,
                               "--schedule", str(sched)])
    assert res.exit_code == 2, res.output
    assert f"{sched}: {fragment}" in res.output


@pytest.mark.parametrize("rows, fragment", [
    (["3", "abc", "1"], "row 2 '2,abc': could not convert string to float"),
    (["3", "", "1"], "row 2 '': invalid literal for int()"),
    (["3", "nan", "1"], "row 2 '2,nan': sorted-L1 weights must be"),
    (["1e999", "2", "1"], "row 1 '1,1e999': sorted-L1 weights must be"),
    (["3", "2", "-1"], "row 3 '3,-1': sorted-L1 weights must be"),
    (["3", "1", "2"], "row 3 '3,2': sorted-L1 weights must be"),
], ids=["non-numeric", "blank-line", "nan", "overflow", "negative", "rise"])
def test_solve_malformed_csv_schedule_exits_2_naming_the_file_and_row(runner, tmp_path, rows,
                                                                      fragment):
    design, response, _ = _identity_problem(tmp_path, m=3)
    sched = tmp_path / "bad.csv"
    # a blank row keeps its number: it is the second row, not a gap
    lines = [f"{i},{v}" if v else "" for i, v in enumerate(rows, start=1)]
    sched.write_text("index,value\n" + "\n".join(lines) + "\n")
    res = runner.invoke(main, ["solve", "--design", design, "--response", response,
                               "--schedule", str(sched)])
    assert res.exit_code == 2, res.output
    assert f"{sched}: {fragment}" in res.output


@pytest.mark.parametrize("row", ["x,0,1.0", "0,g,1.0", "0.5,0", "0,0,heavy"],
                         ids=["feature-index", "group-id", "float-index", "weight"])
def test_solve_malformed_partition_exits_2_naming_the_file_and_row(runner, tmp_path, row):
    design, response, _ = _identity_problem(tmp_path, m=3)
    sched = tmp_path / "s.csv"
    sched.write_text("index,value\n1,2.0\n2,1.0\n3,0.5\n")
    groups = tmp_path / "groups.csv"
    groups.write_text(f"feature_index,group_id,weight\n1,0,1.0\n{row}\n2,1,1.0\n")
    res = runner.invoke(main, ["solve", "--design", design, "--response", response,
                               "--schedule", str(sched), "--groups", str(groups)])
    assert res.exit_code == 2, res.output
    assert f"{groups}: row 2 {row!r}: not int,int[,float]" in res.output


@pytest.mark.parametrize("empty, kind", [
    ("design", "matrix"), ("response", "vector"), ("pvalues", "vector"),
])
def test_empty_input_file_is_refused_without_a_numpy_warning(tmp_path, empty, kind):
    # a new interpreter, so loadtxt's warning would reach stderr as Python
    # shows it outside pytest's warning capture
    files = {name: _write_csv(tmp_path / f"{name}.csv", np.full(4, 0.5))
             for name in ("response", "pvalues")}
    files["design"] = _write_csv(tmp_path / "design.csv", np.eye(4))
    files[empty] = str(tmp_path / "empty.csv")
    Path(files[empty]).write_text("")
    if empty == "pvalues":
        args = ["stepdown", "--pvalues", files["pvalues"], "--rule", "kfwer", "--k", "1",
                "--alpha", "0.1"]
    else:
        args = ["solve", "--design", files["design"], "--response", files["response"],
                "--rule", "bh", "--q", "0.1"]
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    res = subprocess.run([sys.executable, "-m", "stepslope.cli", *args], env=env,
                         capture_output=True, text=True, timeout=120)
    assert res.returncode == 2, res.stderr
    assert f"{files[empty]}: empty {kind}" in res.stderr
    assert "UserWarning" not in res.stderr and "loadtxt" not in res.stderr


def test_solve_singleton_groups_match_feature_fit(runner, tmp_path):
    design, response, _ = _identity_problem(tmp_path, m=8, seed=5)
    sched = tmp_path / "s.csv"
    sched.write_text(schedule_csv_text(bh_schedule(8, 0.3)))
    groups = tmp_path / "groups.csv"
    groups.write_text(
        "feature_index,group_id,weight\n"
        + "".join(f"{i},{i},1.0\n" for i in range(8))
    )
    plain = _invoke(runner, ["solve", "--design", design, "--response", response,
                             "--schedule", str(sched)])
    grouped = _invoke(runner, ["solve", "--design", design, "--response", response,
                               "--schedule", str(sched), "--groups", str(groups)])
    assert plain.exit_code == 0 and grouped.exit_code == 0
    a, b = json.loads(plain.output), json.loads(grouped.output)
    assert b["num_groups"] == 8
    assert a["support"] == b["support"] == b["selected_groups"]
    assert np.allclose(a["beta"], b["beta"], atol=1e-8)


def test_solve_group_rule_uses_standardized_ranks(runner, tmp_path):
    # three groups of two collinear columns: each block has rank 1, so the
    # chi tails of the group schedule have one degree of freedom, not two
    rng = np.random.default_rng(11)
    base = rng.standard_normal((30, 3))
    X = np.repeat(base, 2, axis=1) * np.array([1.0, -2.0] * 3)
    X /= np.sqrt((X * X).sum(axis=0))
    y = X[:, :2] @ np.array([6.0, -3.0]) + 0.3 * rng.standard_normal(30)
    design = _write_csv(tmp_path / "X.csv", X)
    response = _write_csv(tmp_path / "y.csv", y)
    groups = tmp_path / "groups.csv"
    groups.write_text(
        "feature_index,group_id\n" + "".join(f"{i},{i // 2}\n" for i in range(6))
    )
    part = GroupPartition.from_csv(groups)
    assert standardize(X, part).ranks == (1, 1, 1)
    sched = tmp_path / "s.json"
    sched.write_text(
        schedule_json_text(gk_schedule(1, 0.1, (1, 1, 1), tuple(part.weights)))
    )
    common = ["solve", "--design", design, "--response", response,
              "--groups", str(groups)]
    by_rule = _invoke(runner, common + ["--rule", "gk", "--k", "1", "--alpha", "0.1"])
    by_file = _invoke(runner, common + ["--schedule", str(sched)])
    assert by_rule.exit_code == 0 and by_file.exit_code == 0
    assert json.loads(by_rule.output) == json.loads(by_file.output)
    assert json.loads(by_rule.output)["selected_groups"]


def test_solve_group_rule_holds_two_design_sized_arrays(runner, tmp_path):
    # the matrix is dropped once standardized, and the unequal sqrt weights
    # fold into a copy of X~: two n x m arrays at most
    import scipy.linalg  # noqa: F401  its one-time import is not the command's

    n, sizes = 300, (3, 4, 5, 6, 7) * 12
    rng = np.random.default_rng(12)
    X = rng.standard_normal((n, sum(sizes)))
    X /= np.sqrt((X * X).sum(axis=0))
    y = X[:, :10] @ np.full(10, 2.0) + rng.standard_normal(n)
    design = _write_csv(tmp_path / "X.csv", X)
    response = _write_csv(tmp_path / "y.csv", y)
    groups = tmp_path / "groups.csv"
    GroupPartition.from_sizes(sizes).to_csv(groups)
    tracemalloc.start()
    try:
        res = _invoke(runner, ["solve", "--design", design, "--response", response,
                               "--groups", str(groups), "--rule", "gk", "--k", "1",
                               "--alpha", "0.1"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert res.exit_code == 0 and json.loads(res.output)["converged"]
    assert peak < 2.5 * X.nbytes


def test_solve_requires_unit_columns_unless_waived(runner, tmp_path):
    X = np.eye(5) * 2.0
    design = _write_csv(tmp_path / "X.csv", X)
    response = _write_csv(tmp_path / "y.csv", np.ones(5))
    sched = tmp_path / "s.csv"
    sched.write_text(schedule_csv_text(bh_schedule(5, 0.2)))
    strict = runner.invoke(main, ["solve", "--design", design, "--response", response,
                                  "--schedule", str(sched)])
    assert strict.exit_code == 2
    assert "unit" in strict.output
    waived = _invoke(runner, ["solve", "--design", design, "--response", response,
                              "--schedule", str(sched), "--allow-unnormalized"])
    assert waived.exit_code == 0


@pytest.mark.parametrize(
    "mutate,fragment",
    [
        (lambda a: a + ["--rule", "bh", "--q", "0.1"], "exactly one"),
        (lambda a: a[:-2], "exactly one"),
    ],
)
def test_solve_schedule_rule_exclusivity(runner, tmp_path, mutate, fragment):
    design, response, _ = _identity_problem(tmp_path)
    sched = tmp_path / "s.csv"
    sched.write_text(schedule_csv_text(bh_schedule(6, 0.2)))
    args = ["solve", "--design", design, "--response", response,
            "--schedule", str(sched)]
    res = runner.invoke(main, mutate(args))
    assert res.exit_code == 2
    assert fragment in res.output


@pytest.mark.parametrize("option,value", [("--k", "3"), ("--alpha", "0.5"),
                                          ("--gamma", "0.1"), ("--q", "0.1")])
def test_solve_schedule_file_refuses_rule_options(runner, tmp_path, option, value):
    design, response, _ = _identity_problem(tmp_path)
    sched = tmp_path / "s.csv"
    sched.write_text(schedule_csv_text(bh_schedule(6, 0.2)))
    res = runner.invoke(main, ["solve", "--design", design, "--response", response,
                               "--schedule", str(sched), option, value])
    assert res.exit_code == 2
    assert f"{option} does not apply with --schedule" in res.output


def test_solve_groups_refuse_allow_unnormalized(runner, tmp_path):
    design, response, _ = _identity_problem(tmp_path)
    sched = tmp_path / "s.csv"
    sched.write_text(schedule_csv_text(bh_schedule(3, 0.2)))
    groups = tmp_path / "groups.csv"
    groups.write_text("feature_index,group_id\n" + "".join(f"{i},{i // 2}\n" for i in range(6)))
    res = runner.invoke(main, ["solve", "--design", design, "--response", response,
                               "--schedule", str(sched), "--groups", str(groups),
                               "--allow-unnormalized"])
    assert res.exit_code == 2
    assert "--allow-unnormalized does not apply with --groups" in res.output


_COUNTERS = ("iterations", "restarts", "backoffs", "matvecs", "rounds", "full_matvecs")


def _fit_problem(tmp_path, n=40, m=12, seed=2):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, m))
    X /= np.sqrt((X * X).sum(axis=0))
    y = X[:, :3] @ np.array([5.0, -4.0, 3.0]) + rng.normal(size=n)
    sched = tmp_path / "s.csv"
    return X, y, _write_csv(tmp_path / "X.csv", X), _write_csv(tmp_path / "y.csv", y), sched


def test_solve_json_records_fit_counters(runner, tmp_path):
    X, y, design, response, sched = _fit_problem(tmp_path)
    lam = bh_schedule(12, 0.2)
    sched.write_text(schedule_csv_text(lam))
    res = _invoke(runner, ["solve", "--design", design, "--response", response,
                           "--schedule", str(sched)])
    assert res.exit_code == 0
    doc = json.loads(res.output)
    fit = solve_slope(X, y, lam.values)
    counters = (fit.iterations, fit.restarts, fit.backoffs, fit.matvecs, fit.rounds,
                fit.full_matvecs)
    assert counters[3] > 0 and counters[4] >= 1 and counters[5] > 0
    assert tuple(doc[k] for k in _COUNTERS) == counters


def test_solve_json_records_group_fit_counters(runner, tmp_path):
    X, y, design, response, sched = _fit_problem(tmp_path, seed=4)
    partition = GroupPartition.from_sizes((3, 3, 2, 4))
    groups = tmp_path / "groups.csv"
    partition.to_csv(groups)
    lam = bh_schedule(4, 0.2)
    sched.write_text(schedule_csv_text(lam))
    res = _invoke(runner, ["solve", "--design", design, "--response", response,
                           "--schedule", str(sched), "--groups", str(groups)])
    assert res.exit_code == 0
    doc = json.loads(res.output)
    fit = solve_group_slope(X, y, partition, lam.values)
    counters = (fit.iterations, fit.restarts, fit.backoffs, fit.matvecs, fit.rounds,
                fit.full_matvecs)
    assert counters[3] > 0 and counters[4] >= 1 and counters[5] > 0
    assert tuple(doc[k] for k in _COUNTERS) == counters


def test_solve_length_mismatch(runner, tmp_path):
    design = _write_csv(tmp_path / "X.csv", np.eye(4))
    response = _write_csv(tmp_path / "y.csv", np.ones(3))
    res = runner.invoke(main, ["solve", "--design", design, "--response", response,
                               "--rule", "bh", "--q", "0.1"])
    assert res.exit_code == 2
    assert "does not match design rows" in res.output


def test_solve_missing_file_is_usage_error(runner, tmp_path):
    response = _write_csv(tmp_path / "y.csv", np.ones(3))
    res = runner.invoke(main, ["solve", "--design", str(tmp_path / "absent.csv"),
                               "--response", response, "--rule", "bh", "--q", "0.1"])
    assert res.exit_code == 2


def test_solve_malformed_design(runner, tmp_path):
    bad = tmp_path / "X.csv"
    bad.write_text("1.0,2.0\nnot,numbers\n")
    response = _write_csv(tmp_path / "y.csv", np.ones(2))
    res = runner.invoke(main, ["solve", "--design", str(bad), "--response", response,
                               "--rule", "bh", "--q", "0.1"])
    assert res.exit_code == 2
    assert "could not parse" in res.output


@pytest.mark.parametrize(
    "option,value,fragment",
    [("--tol", "inf", "tol must be positive and finite, got inf"),
     ("--sigma", "inf", "sigma must be positive and finite, got inf")],
)
def test_solve_infinite_numeric_option_exits_2(runner, tmp_path, option, value, fragment):
    # --tol inf reported every fit converged after one iteration
    _, _, design, response, _ = _fit_problem(tmp_path)
    res = runner.invoke(main, ["solve", "--design", design, "--response", response,
                               "--rule", "bh", "--q", "0.1", option, value])
    assert res.exit_code == 2, res.output
    assert fragment in res.output


@pytest.mark.parametrize("entry", ["nan", "inf"])
def test_solve_schedule_file_with_a_non_finite_entry_exits_2(runner, tmp_path, entry):
    _, _, design, response, sched = _fit_problem(tmp_path)
    values = [str(v) for v in bh_schedule(12, 0.2).values]
    values[0 if entry == "inf" else 5] = entry
    sched.write_text("index,value\n" + "".join(f"{i},{v}\n" for i, v in enumerate(values, 1)))
    res = runner.invoke(main, ["solve", "--design", design, "--response", response,
                               "--schedule", str(sched)])
    assert res.exit_code == 2, res.output
    assert "non-negative, non-increasing and finite" in res.output


def test_solve_corrected_group_rule_with_a_vanishing_weight_exits_2(runner, tmp_path):
    # 1/1e-320 overflows to an inf chi-mixture scale, on which the mixture
    # quantile's bisection never ended
    _, _, design, response, _ = _fit_problem(tmp_path)
    groups = tmp_path / "groups.csv"
    groups.write_text("".join(f"{i},{i // 6},{1e-320 if i < 6 else 1.0!r}\n"
                              for i in range(12)))
    res = runner.invoke(main, ["solve", "--design", design, "--response", response,
                               "--groups", str(groups), "--rule", "gk-corrected",
                               "--k", "1", "--alpha", "0.1"])
    assert res.exit_code == 2, res.output
    assert "component scale must be positive and finite, got inf" in res.output


# --------------------------------------------------------------- stepdown


def test_stepdown_kfwer_thresholds_and_rejections(runner, tmp_path):
    p = np.array([1e-6, 0.9, 1e-5, 0.2, 0.5, 0.04, 0.7, 0.3])
    pv = _write_csv(tmp_path / "p.csv", p)
    res = _invoke(runner, ["stepdown", "--pvalues", pv, "--rule", "kfwer",
                           "--k", "2", "--alpha", "0.1"])
    assert res.exit_code == 0
    doc = json.loads(res.output)
    assert doc["rule"] == "kfwer"
    assert doc["params"] == {"m": 8, "k": 2, "alpha": 0.1}
    assert doc["thresholds"][:3] == [0.025, 0.025, 0.028571428571428574]
    assert doc["thresholds"][-1] == 0.1
    expected = sorted(stepdown_reject(p, kfwer_thresholds(8, 2, 0.1)))
    assert doc["rejected"] == [int(i) for i in expected]
    assert doc["num_rejected"] == len(expected)


def test_stepdown_accepts_nothing_on_flat_pvalues(runner, tmp_path):
    pv = _write_csv(tmp_path / "p.csv", np.ones(6))
    res = _invoke(runner, ["stepdown", "--pvalues", pv, "--rule", "fdp",
                           "--alpha", "0.1", "--gamma", "0.1"])
    assert res.exit_code == 0
    doc = json.loads(res.output)
    assert doc["rejected"] == [] and doc["num_rejected"] == 0


@pytest.mark.parametrize(
    "extra,fragment",
    [
        (["--rule", "kfwer", "--alpha", "0.1"], "requires --k"),
        (["--rule", "kfwer", "--k", "1", "--alpha", "0.1", "--gamma", "0.2"],
         "--gamma does not apply"),
        (["--rule", "fdp", "--alpha", "0.1"], "requires --gamma"),
        (["--rule", "fdp", "--alpha", "0.1", "--gamma", "0.1", "--k", "2"],
         "--k does not apply"),
    ],
)
def test_stepdown_usage_errors(runner, tmp_path, extra, fragment):
    pv = _write_csv(tmp_path / "p.csv", np.full(4, 0.5))
    res = runner.invoke(main, ["stepdown", "--pvalues", pv] + extra)
    assert res.exit_code == 2
    assert fragment in res.output


def test_stepdown_pvalues_are_one_row_or_one_column(runner, tmp_path):
    p = np.array([[1e-6, 0.9], [1e-5, 0.2], [0.5, 0.04]])
    args = ["--rule", "kfwer", "--k", "1", "--alpha", "0.1"]
    matrix = _write_csv(tmp_path / "m.csv", p)
    res = runner.invoke(main, ["stepdown", "--pvalues", matrix] + args)
    assert res.exit_code == 2, res.output
    assert "expected one row or one column, got 3x2" in res.output
    docs = []
    for name, shape in (("row.csv", (1, 6)), ("column.csv", (6, 1))):
        path = _write_csv(tmp_path / name, p.reshape(shape))
        docs.append(_invoke(runner, ["stepdown", "--pvalues", path] + args).output)
    assert docs[0] == docs[1]
    assert json.loads(docs[0])["params"]["m"] == 6


def test_stepdown_rejects_out_of_range_pvalues(runner, tmp_path):
    pv = _write_csv(tmp_path / "p.csv", np.array([0.2, 1.4, 0.1]))
    res = runner.invoke(main, ["stepdown", "--pvalues", pv, "--rule", "kfwer",
                               "--k", "1", "--alpha", "0.1"])
    assert res.exit_code == 2
    assert "must lie in [0, 1]" in res.output


# --------------------------------------------------------------- simulate


_SIM_ARGS = ["simulate", "--design", "orthogonal-identity", "--method", "k-slope",
             "--n", "30", "--m", "30", "--t", "3", "--k", "2", "--reps", "4",
             "--seed", "17"]


def _run_dir(tmp_path, res):
    run_id = res.output.strip().split()[1].rstrip(":")
    return tmp_path / run_id, run_id


def test_simulate_inline_config_writes_run_dir(runner, tmp_path):
    res = _invoke(runner, _SIM_ARGS + ["--out", str(tmp_path)])
    assert res.exit_code == 0
    run_dir, run_id = _run_dir(tmp_path, res)
    assert run_dir.is_dir()
    assert {p.name for p in run_dir.iterdir()} == {
        "manifest.json", "report.csv", "details.json"
    }
    manifest = json.loads((run_dir / "manifest.json").read_text())
    assert set(manifest) == {"code_version", "command", "configs", "created_utc",
                             "outputs", "preset", "schedules", "threads"}
    assert manifest["preset"] is None
    assert manifest["threads"] == 1
    (config,) = manifest["configs"]
    assert config["method"] == "k-slope" and config["replications"] == 4
    # the directory name commits to the exact configs that ran
    stripped = dict(config)
    cid = stripped.pop("config_id")
    expected = hashlib.sha256(
        json.dumps([stripped], sort_keys=True).encode()
    ).hexdigest()[:12]
    assert run_id == expected
    assert ExperimentConfig.from_dict(stripped).config_id() == cid
    report_lines = (run_dir / "report.csv").read_text().strip().split("\n")
    assert len(report_lines) == 5
    assert report_lines[0].startswith("config_id,design,method")


def test_simulate_reports_are_reproducible(runner, tmp_path):
    first = _invoke(runner, _SIM_ARGS + ["--out", str(tmp_path / "a")])
    second = _invoke(runner, _SIM_ARGS + ["--out", str(tmp_path / "b")])
    assert first.exit_code == 0 and second.exit_code == 0
    dir_a, _ = _run_dir(tmp_path / "a", first)
    dir_b, _ = _run_dir(tmp_path / "b", second)
    for name in ("report.csv", "details.json"):
        assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes()


def test_simulate_config_file_with_grid(runner, tmp_path):
    doc = {
        "experiments": [
            {"design": "orthogonal-identity", "method": "k-slope", "n": 25,
             "m": 25, "t": 2, "k": 2, "replications": 3, "seed": 2},
            {"design": "orthogonal-identity", "method": "slope-bh", "n": 25,
             "m": 25, "t": 2, "replications": 3, "seed": 2},
        ],
        "kfwer_grid": [1, 2, 3],
    }
    cfg = tmp_path / "experiments.json"
    cfg.write_text(json.dumps(doc))
    res = _invoke(runner, ["simulate", "--config", str(cfg),
                           "--out", str(tmp_path)])
    assert res.exit_code == 0
    run_dir, _ = _run_dir(tmp_path, res)
    grid_lines = (run_dir / "kfwer_grid.csv").read_text().strip().split("\n")
    assert grid_lines[0] == "config_id,design,method,t,k,estimate,se"
    # k-specific methods own a single row, the rest sweep the grid
    ks = [(line.split(",")[2], int(line.split(",")[4])) for line in grid_lines[1:]]
    assert ks == [("k-slope", 2), ("slope-bh", 1), ("slope-bh", 2), ("slope-bh", 3)]
    manifest = json.loads((run_dir / "manifest.json").read_text())
    assert manifest["outputs"]["grid"] == "kfwer_grid.csv"
    assert manifest["kfwer_grid"] == [1, 2, 3]


def test_simulate_replays_from_manifest(runner, tmp_path):
    first = _invoke(runner, _SIM_ARGS + ["--out", str(tmp_path / "a")])
    assert first.exit_code == 0
    dir_a, run_id = _run_dir(tmp_path / "a", first)
    replay = _invoke(runner, ["simulate", "--config", str(dir_a / "manifest.json"),
                              "--out", str(tmp_path / "b")])
    assert replay.exit_code == 0
    dir_b, replay_id = _run_dir(tmp_path / "b", replay)
    assert replay_id == run_id
    assert (dir_a / "report.csv").read_bytes() == (dir_b / "report.csv").read_bytes()
    assert (dir_a / "details.json").read_bytes() == (dir_b / "details.json").read_bytes()


def test_simulate_replay_of_a_replay_keeps_the_grid(runner, tmp_path):
    cfg = tmp_path / "grid.json"
    cfg.write_text(json.dumps({
        "experiments": [dict(design="orthogonal-identity", method=method, n=20, m=20,
                             t=2, k=2, replications=3, seed=4)
                        for method in ("k-slope", "slope-bh")],
        "kfwer_grid": [1, 3],
    }))
    res = _invoke(runner, ["simulate", "--config", str(cfg), "--out", str(tmp_path / "0")])
    assert res.exit_code == 0
    dirs = [_run_dir(tmp_path / "0", res)[0]]
    for generation in (1, 2):
        res = _invoke(runner, ["simulate", "--config", str(dirs[-1] / "manifest.json"),
                               "--out", str(tmp_path / str(generation))])
        assert res.exit_code == 0
        dirs.append(_run_dir(tmp_path / str(generation), res)[0])
    for run_dir in dirs:
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert manifest["kfwer_grid"] == [1, 3]
        assert manifest["outputs"] == {"report": "report.csv", "details": "details.json",
                                       "grid": "kfwer_grid.csv"}
        for name in manifest["outputs"].values():
            assert (run_dir / name).read_bytes() == (dirs[0] / name).read_bytes(), name


def test_simulate_single_config_document(runner, tmp_path):
    cfg = tmp_path / "one.json"
    cfg.write_text(json.dumps({
        "design": "orthogonal-identity", "method": "sd-kfwer", "n": 20, "m": 20,
        "t": 2, "k": 2, "replications": 3, "seed": 6,
    }))
    res = _invoke(runner, ["simulate", "--config", str(cfg), "--reps", "2",
                           "--out", str(tmp_path)])
    assert res.exit_code == 0
    run_dir, _ = _run_dir(tmp_path, res)
    manifest = json.loads((run_dir / "manifest.json").read_text())
    assert manifest["configs"][0]["replications"] == 2
    assert manifest["schedules"][0]["type"] == "thresholds"


def test_simulate_preset_with_overrides(runner, tmp_path):
    res = _invoke(runner, ["simulate", "--preset", "table2", "--reps", "1",
                           "--out", str(tmp_path)])
    assert res.exit_code == 0
    run_dir, _ = _run_dir(tmp_path, res)
    manifest = json.loads((run_dir / "manifest.json").read_text())
    assert manifest["preset"]["name"] == "table2"
    assert manifest["preset"]["version"] == 1
    assert all(c["replications"] == 1 for c in manifest["configs"])
    assert len(manifest["schedules"]) == len(manifest["configs"])


@pytest.mark.parametrize(
    "args,fragment",
    [
        (["simulate", "--preset", "nope"], "unknown preset"),
        (["simulate", "--preset", "table2", "--config", "x.json"], "not both"),
        (["simulate", "--method", "k-slope"], "--design"),
        (["simulate", "--design", "orthogonal-identity", "--method", "k-slope",
          "--n", "10", "--m", "10", "--t", "3", "--k", "20"], "exceeds m="),
    ],
)
def test_simulate_usage_errors(runner, tmp_path, args, fragment):
    if "x.json" in args:
        (tmp_path / "x.json").write_text("[]")
        args = [a if a != "x.json" else str(tmp_path / "x.json") for a in args]
    res = runner.invoke(main, args + ["--out", str(tmp_path)])
    assert res.exit_code == 2
    assert fragment in res.output


def test_simulate_unknown_preset_lists_available(runner, tmp_path):
    res = runner.invoke(main, ["simulate", "--preset", "nope",
                               "--out", str(tmp_path)])
    assert res.exit_code == 2
    assert "table2" in res.output and "fig1" in res.output


def test_simulate_invalid_config_json(runner, tmp_path):
    cfg = tmp_path / "broken.json"
    cfg.write_text("{not json")
    res = runner.invoke(main, ["simulate", "--config", str(cfg),
                               "--out", str(tmp_path)])
    assert res.exit_code == 2
    assert "invalid JSON" in res.output


@pytest.mark.parametrize(
    "doc,fragment",
    [
        ({"design": "gaussian", "method": "k-slope", "n": None, "m": 20, "t": 2},
         "n must be a number, got None"),
        ({"design": "gaussian", "method": "k-slope", "n": 40, "m": 20, "t": 2, "alpha": "x"},
         "alpha must be a number, got 'x'"),
        ({"design": "gaussian", "method": "k-slope", "n": True, "m": 20, "t": 2},
         "n must be a number, got True"),
        ({"configs": [3]}, "an experiment must be an object, got int"),
        ({"configs": 3}, "configs must be a list of experiment objects"),
    ],
    ids=["null", "string", "boolean", "manifest-entry", "manifest-configs"],
)
def test_simulate_config_of_wrong_json_type_exits_2(runner, tmp_path, doc, fragment):
    cfg = tmp_path / "typed.json"
    cfg.write_text(json.dumps(doc))
    res = runner.invoke(main, ["simulate", "--config", str(cfg), "--out", str(tmp_path)])
    assert res.exit_code == 2
    assert fragment in res.output


_CELL = {"design": "orthogonal-identity", "method": "slope-bh", "n": 20, "m": 20, "t": 2}


@pytest.mark.parametrize(
    "doc,fragment",
    [
        (dict(_CELL, reps=3), "unknown experiment field(s): reps"),
        ({k: v for k, v in _CELL.items() if k != "design"},
         "experiment lacks required field(s): design"),
        ({"experiments": [[1, 2]]}, "an experiment must be an object, got list"),
        ({"experiments": _CELL}, "experiments must be a list of experiment objects"),
        (dict(_CELL, fit_tol=float("inf")), "fit_tol must be positive and finite, got inf"),
        (dict(_CELL, sigma=float("inf")), "sigma must be positive and finite, got inf"),
        (dict(_CELL, weight_scheme="bogus"), "unknown weight_scheme 'bogus'"),
        (dict(_CELL, design="gaussian", method="k-slope", n=40.0),
         "n must be an integer, got 40.0"),
        (dict(_CELL, m=20.0), "m must be an integer, got 20.0"),
        (dict(_CELL, t=2.0), "t must be an integer, got 2.0"),
        (dict(_CELL, replications=2.0), "replications must be an integer, got 2.0"),
        (dict(_CELL, k=2.0), "k must be an integer, got 2.0"),
        (dict(_CELL, seed=3.0), "seed must be an integer, got 3.0"),
        (dict(_CELL, design="group-orthogonal", method="gk-slope", num_groups=4.0,
              group_sizes=[5], k=1), "num_groups must be an integer, got 4.0"),
    ],
)
def test_simulate_malformed_config_is_rejected_before_the_run(runner, tmp_path, doc,
                                                              fragment):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps(doc))
    out = tmp_path / "runs"
    res = runner.invoke(main, ["simulate", "--config", str(cfg), "--out", str(out)])
    assert res.exit_code == 2, res.output
    assert fragment in res.output
    assert not out.exists()


@pytest.mark.parametrize("grid, fragment", [
    ("ab", "kfwer_grid must be a list of positive integers, got 'ab'"),
    (5, "kfwer_grid must be a list of positive integers, got 5"),
    ([2.5], "kfwer_grid entries must be a positive integer, got 2.5"),
    ([True], "kfwer_grid entries must be a positive integer, got True"),
    ([0, 2], "kfwer_grid entries must be a positive integer, got 0"),
], ids=["string", "number", "fraction", "boolean", "zero"])
def test_simulate_bad_kfwer_grid_is_rejected_before_the_run(runner, tmp_path, grid,
                                                            fragment):
    cfg = tmp_path / "grid.json"
    cfg.write_text(json.dumps({"experiments": [_CELL], "kfwer_grid": grid}))
    out = tmp_path / "runs"
    res = runner.invoke(main, ["simulate", "--config", str(cfg), "--out", str(out)])
    assert res.exit_code == 2, res.output
    assert fragment in res.output
    assert not out.exists()


def _manifest_config(runner, tmp_path, args):
    res = _invoke(runner, args + ["--out", str(tmp_path)])
    assert res.exit_code == 0
    run_dir, _ = _run_dir(tmp_path, res)
    (config,) = json.loads((run_dir / "manifest.json").read_text())["configs"]
    return config


def test_simulate_group_sizes_option(runner, tmp_path):
    config = _manifest_config(runner, tmp_path, [
        "simulate", "--design", "group-orthogonal", "--method", "gk-slope",
        "--n", "8", "--m", "8", "--t", "1", "--k", "1", "--num-groups", "2",
        "--group-sizes", "2,6", "--reps", "2",
    ])
    assert config["group_sizes"] == [2, 6] and config["num_groups"] == 2


@pytest.mark.parametrize("text,value", [("3.5", 3.5), ("weak", "weak")])
def test_simulate_signal_option_is_a_number_or_a_name(runner, tmp_path, text, value):
    config = _manifest_config(runner, tmp_path, _SIM_ARGS + ["--signal", text])
    assert config["signal"] == value and type(config["signal"]) is type(value)


def test_simulate_non_finite_signal_is_rejected_before_the_run(runner, tmp_path):
    out = tmp_path / "runs"
    res = runner.invoke(main, _SIM_ARGS + ["--signal", "nan", "--out", str(out)])
    assert res.exit_code == 2
    assert "signal must be a finite amplitude" in res.output
    assert not out.exists()


_GROUP_SIM_ARGS = ["simulate", "--design", "group-orthogonal", "--method", "gk-slope",
                   "--n", "8", "--m", "8", "--t", "1", "--k", "1", "--reps", "2"]


@pytest.mark.parametrize(
    "args,fragment",
    [
        (_SIM_ARGS[:2] + ["gaussian"] + _SIM_ARGS[3:] + ["--signal", "group-scaled"],
         "group-scaled signal applies to group designs only"),
        (_GROUP_SIM_ARGS + ["--num-groups", "2", "--group-sizes", "4",
                            "--signal", "strong"], "applies to feature designs"),
        (_GROUP_SIM_ARGS + ["--num-groups", "1", "--group-sizes", "8",
                            "--signal", "group-scaled"], "needs at least two groups"),
    ],
)
def test_simulate_unresolvable_signal_is_rejected_before_the_run(runner, tmp_path, args,
                                                                 fragment):
    out = tmp_path / "runs"
    res = runner.invoke(main, args + ["--out", str(out)])
    assert res.exit_code == 2
    assert fragment in res.output
    assert not out.exists()


def test_simulate_infinite_sigma_is_rejected_before_the_run(runner, tmp_path):
    # it once left a run directory holding only its manifest
    out = tmp_path / "runs"
    res = runner.invoke(main, _SIM_ARGS + ["--sigma", "inf", "--out", str(out)])
    assert res.exit_code == 2
    assert "sigma must be positive and finite, got inf" in res.output
    assert not out.exists()


def test_simulate_bad_threads_is_rejected_before_the_run(runner, tmp_path):
    out = tmp_path / "runs"
    res = runner.invoke(main, _SIM_ARGS + ["--threads", "0", "--out", str(out)])
    assert res.exit_code == 2
    assert "threads must be a positive integer" in res.output
    assert not out.exists()


def test_simulate_config_file_with_a_list(runner, tmp_path):
    cfg = tmp_path / "list.json"
    cfg.write_text(json.dumps([
        {"design": "orthogonal-identity", "method": "slope-bh", "n": 20, "m": 20,
         "t": 2, "replications": 2, "seed": 3},
        {"design": "orthogonal-identity", "method": "sd-fdp", "n": 20, "m": 20,
         "t": 2, "replications": 2, "seed": 3},
    ]))
    res = _invoke(runner, ["simulate", "--config", str(cfg), "--out", str(tmp_path)])
    assert res.exit_code == 0
    run_dir, _ = _run_dir(tmp_path, res)
    manifest = json.loads((run_dir / "manifest.json").read_text())
    assert [c["method"] for c in manifest["configs"]] == ["slope-bh", "sd-fdp"]
    assert len((run_dir / "report.csv").read_text().strip().split("\n")) == 9


def test_option_names_are_config_and_request_fields():
    # each such option is passed straight through as the same-named
    # config field or rule parameter
    config_fields = {f.name for f in dataclasses.fields(ExperimentConfig)}
    for param in cli.simulate.params:
        if param.name not in ("preset", "config_path", "threads", "out_root"):
            assert param.name in config_fields, param.name
    rule_params = {name for row in _RULE_TABLE.values() for name in row.required + row.optional}
    for param in cli.lambda_cmd.params:
        if param.name not in ("rule", "group_sizes", "weight_scheme", "design_path", "out"):
            assert param.name in rule_params, param.name


# ------------------------------------------------------------------ misc


def test_all_bundled_presets_validate():
    from importlib import resources

    base = resources.files("stepslope").joinpath("presets")
    names = sorted(p.name for p in base.iterdir() if p.name.endswith(".json"))
    assert len(names) == 11
    for name in names:
        doc = json.loads(base.joinpath(name).read_text())
        assert doc["name"] == name[:-5]
        assert doc["version"] == 1
        assert doc["description"]
        assert isinstance(doc.get("notes", []), list)
        configs = [ExperimentConfig.from_dict(d) for d in doc["experiments"]]
        assert len({c.config_id() for c in configs}) == len(configs), name
        for k in doc.get("kfwer_grid", []):
            assert isinstance(k, int) and k >= 1


def test_version_flag(runner):
    res = _invoke(runner, ["--version"])
    assert res.exit_code == 0
    assert "0.1.0" in res.output


def test_bare_invocation_shows_usage(runner):
    res = runner.invoke(main, [])
    assert res.exit_code == 2
    assert "Usage:" in res.output
