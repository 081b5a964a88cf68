"""Group partition, standardization, block prox, and the group solver."""
import itertools

import numpy as np
import pytest

from stepslope import groups
from stepslope.errors import NumericalError
from stepslope.groups import (
    GroupPartition,
    group_prox,
    group_support_metrics,
    solve_group_slope,
    standardize,
)
from stepslope.schedules import bh_schedule, gf_schedule
from stepslope.solver import DesignMatrix, solve_slope
from stepslope.sorted_l1 import prox_sorted_l1, sorted_l1_norm

from oracles import group_prox_grid


def _unit_columns(X):
    return X / np.sqrt((X * X).sum(axis=0))


def test_partition_defaults_and_accessors():
    part = GroupPartition.from_sizes((2, 3, 1))
    assert part.groups == ((0, 1), (2, 3, 4), (5,))
    assert part.sizes == (2, 3, 1)
    assert part.num_features == 6
    assert len(part) == 3
    assert np.allclose(part.weights, np.sqrt([2.0, 3.0, 1.0]))


def test_partition_validation():
    with pytest.raises(ValueError, match="cover feature indices"):
        GroupPartition(((0, 1), (3,)))
    with pytest.raises(ValueError, match="cover feature indices"):
        GroupPartition(((0, 1), (1, 2)))
    with pytest.raises(ValueError, match="non-empty"):
        GroupPartition(((),))
    with pytest.raises(ValueError, match="weights must be positive"):
        GroupPartition(((0,), (1,)), np.array([1.0, 0.0]))
    with pytest.raises(ValueError, match="weights have shape"):
        GroupPartition(((0,), (1,)), np.array([1.0]))


def test_partition_csv_round_trip(tmp_path):
    part = GroupPartition(((2, 0), (1, 3, 4)), np.array([1.5, 0.5]))
    path = tmp_path / "groups.csv"
    part.to_csv(path)
    back = GroupPartition.from_csv(path)
    assert back.groups == ((0, 2), (1, 3, 4))
    assert np.array_equal(back.weights, part.weights)


def test_partition_csv_without_weights(tmp_path):
    path = tmp_path / "plain.csv"
    path.write_text("0,0\n1,0\n2,1\n")
    part = GroupPartition.from_csv(path)
    assert part.groups == ((0, 1), (2,))
    assert np.allclose(part.weights, [np.sqrt(2.0), 1.0])


def test_partition_csv_malformed(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("0,0,1.0,9\n")
    with pytest.raises(ValueError, match="columns"):
        GroupPartition.from_csv(path)
    path.write_text("0,0,1.0\n1,0,2.0\n")
    with pytest.raises(ValueError, match="conflicting weights"):
        GroupPartition.from_csv(path)


def test_standardize_blocks_are_orthonormal_and_reconstruct():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(20, 7))
    part = GroupPartition.from_sizes((3, 2, 2))
    sp = standardize(X, part)
    assert sp.ranks == (3, 2, 2)
    for gi, g in enumerate(part.groups):
        U = sp.x_tilde[:, sp.block(gi)]
        assert np.allclose(U.T @ U, np.eye(len(g)), atol=1e-12)
        assert np.allclose(U @ sp.r_factors[gi], X[:, g], atol=1e-12)


def test_standardize_detects_rank_deficiency():
    rng = np.random.default_rng(1)
    col = rng.normal(size=(15, 1))
    X = np.hstack([col, 2.0 * col, rng.normal(size=(15, 2))])
    sp = standardize(X, GroupPartition.from_sizes((2, 2)))
    assert sp.ranks == (1, 2)
    U = sp.x_tilde[:, sp.block(0)]
    assert np.allclose(U @ sp.r_factors[0], X[:, :2], atol=1e-12)


def test_standardize_rejects_zero_block():
    X = np.zeros((10, 2))
    X[:, 1] = 1.0
    with pytest.raises(ValueError, match="all-zero design block"):
        standardize(X, GroupPartition.from_sizes((1, 1)))


def test_standardize_rejects_partition_mismatch():
    with pytest.raises(ValueError, match="partition covers"):
        standardize(np.eye(4), GroupPartition.from_sizes((2, 3)))


def test_group_prox_equal_weights_closed_form():
    v = np.array([3.0, 1.0, 0.2])
    w = np.full(3, 2.0)
    lam = np.array([1.0, 0.5, 0.25])
    got = group_prox(v, w, lam, step=0.3)
    want = np.maximum(prox_sorted_l1(v, 0.3 * 2.0 * lam), 0.0)
    assert np.array_equal(got, want)


def test_group_prox_matches_grid_oracle_unequal_weights():
    rng = np.random.default_rng(2)
    for _ in range(5):
        t = int(rng.integers(2, 4))
        v = rng.uniform(0.0, 3.0, size=t)
        w = rng.uniform(0.5, 2.0, size=t)
        lam = np.sort(rng.uniform(0.1, 1.5, size=t))[::-1]
        step = float(rng.uniform(0.2, 1.0))
        got = group_prox(v, w, lam, step)

        def objective(g):
            mags = np.sort(w * g)[::-1]
            return 0.5 * np.sum((g - v) ** 2) + step * np.sum(lam * mags)

        ref = group_prox_grid(v, w, lam, step)
        assert objective(got) <= objective(ref) + 1e-6
        assert np.max(np.abs(got - ref)) < 5e-2


def test_group_prox_raises_when_inner_loop_cannot_settle(monkeypatch):
    flip = itertools.cycle((0.0, 1.0))
    monkeypatch.setattr(
        groups, "prox_sorted_l1", lambda x, lam: np.full_like(x, next(flip))
    )
    v = np.array([2.0, 1.0])
    w = np.array([1.0, 2.0])
    with pytest.raises(NumericalError, match=r"did not settle .*step 1\b"):
        group_prox(v, w, np.array([1.0, 0.5]), step=0.5)


def test_group_prox_validation():
    with pytest.raises(ValueError, match="matching lengths"):
        group_prox(np.ones(2), np.ones(3), np.ones(2), 1.0)
    with pytest.raises(ValueError, match="non-negative"):
        group_prox(np.array([-1.0]), np.ones(1), np.ones(1), 1.0)
    with pytest.raises(ValueError, match="positive"):
        group_prox(np.ones(1), np.zeros(1), np.ones(1), 1.0)
    with pytest.raises(ValueError, match="step"):
        group_prox(np.ones(1), np.ones(1), np.ones(1), -0.5)


def test_singleton_groups_reproduce_feature_solver():
    rng = np.random.default_rng(3)
    for trial in range(5):
        n, m = 24, 8
        X = _unit_columns(rng.normal(size=(n, m)))
        y = rng.normal(size=n)
        lam = bh_schedule(m, 0.2).values
        part = GroupPartition.from_sizes((1,) * m, weights=np.ones(m))
        gfit = solve_group_slope(X, y, part, lam, tol=1e-10)
        ffit = solve_slope(DesignMatrix(X), y, lam, tol=1e-10)
        assert {int(i) for i in np.flatnonzero(gfit.beta)} == ffit.support
        assert np.max(np.abs(gfit.beta - ffit.beta)) < 1e-8


def test_orthonormal_blocks_reduce_to_block_prox():
    rng = np.random.default_rng(4)
    y = rng.normal(size=6)
    part = GroupPartition.from_sizes((2, 2, 2))
    lam = np.array([1.2, 0.8, 0.4])
    fit = solve_group_slope(np.eye(6), y, part, lam, tol=1e-12)
    offsets = np.array([0, 2, 4])
    gz = np.sqrt(np.add.reduceat(y * y, offsets))
    gstar = group_prox(gz, part.weights, lam, 1.0)
    want = y * np.repeat(gstar / gz, 2)
    assert np.max(np.abs(fit.beta - want)) < 1e-10
    assert np.allclose(fit.group_norms, gstar, atol=1e-12)


def test_group_solution_beats_perturbations():
    rng = np.random.default_rng(5)
    n, sizes = 30, (3, 2, 4)
    X = rng.normal(size=(n, sum(sizes)))
    part = GroupPartition.from_sizes(sizes)
    y = rng.normal(size=n)
    lam = gf_schedule(0.2, 0.2, sizes, tuple(part.weights)).values
    fit = solve_group_slope(X, y, part, lam, tol=1e-12)
    sp = standardize(X, part)

    def objective(beta):
        r = y - X @ beta
        norms = np.array(
            [np.linalg.norm(X[:, g] @ beta[list(g)]) for g in part.groups]
        )
        return 0.5 * float(r @ r) + sorted_l1_norm(part.weights * norms, lam)

    f_star = objective(fit.beta)
    assert f_star == pytest.approx(fit.objective, rel=1e-9, abs=1e-9)
    for _ in range(40):
        cand = fit.beta + rng.normal(0.0, 0.02, size=fit.beta.size)
        assert f_star <= objective(cand) + 1e-8


def test_precomputed_standardization_is_equivalent():
    rng = np.random.default_rng(6)
    X = rng.normal(size=(18, 6))
    part = GroupPartition.from_sizes((2, 2, 2))
    y = rng.normal(size=18)
    lam = np.array([1.0, 0.6, 0.3])
    sp = standardize(X, part)
    a = solve_group_slope(X, y, part, lam)
    b = solve_group_slope(X, y, part, lam, standardized=sp)
    assert np.array_equal(a.beta, b.beta)
    assert a.iterations == b.iterations


def test_group_solver_gap_certificate_and_exact_zero_norms():
    rng = np.random.default_rng(7)
    X = rng.normal(size=(40, 10))
    part = GroupPartition.from_sizes((5, 5))
    y = 0.05 * rng.normal(size=40)
    lam = np.array([8.0, 6.0])
    fit = solve_group_slope(X, y, part, lam, tol=1e-9)
    assert fit.converged
    assert fit.final_gap <= 1e-9
    assert np.array_equal(fit.group_norms, np.zeros(2))
    assert fit.selected_groups == set()
    assert np.array_equal(fit.beta, np.zeros(10))


def test_rank_deficient_group_fits_consistently():
    rng = np.random.default_rng(8)
    col = rng.normal(size=(25, 1))
    X = np.hstack([col, col * 1.5, rng.normal(size=(25, 3))])
    part = GroupPartition.from_sizes((2, 3))
    beta_true = np.array([1.0, 0.5, 0.0, 0.0, 0.0])
    y = X @ beta_true + 0.01 * rng.normal(size=25)
    lam = np.array([0.4, 0.2])
    fit = solve_group_slope(X, y, part, lam, tol=1e-11)
    sp = standardize(X, part)
    # the reported coefficients must reproduce the standardized fit exactly
    c = np.concatenate(
        [sp.r_factors[g] @ fit.beta[list(part.groups[g])] for g in range(2)]
    )
    assert np.allclose(sp.x_tilde @ c, X @ fit.beta, atol=1e-10)
    assert 0 in fit.selected_groups


def test_group_solver_validation():
    part = GroupPartition.from_sizes((2, 2))
    X = np.eye(4)
    with pytest.raises(ValueError, match="response has shape"):
        solve_group_slope(X, np.zeros(3), part, np.ones(2))
    with pytest.raises(ValueError, match="schedule has length"):
        solve_group_slope(X, np.zeros(4), part, np.ones(3))
    with pytest.raises(ValueError, match="sigma"):
        solve_group_slope(X, np.zeros(4), part, np.ones(2), sigma=-1.0)


def test_group_support_metrics_counts():
    sm = group_support_metrics({0, 2, 5}, {0, 1}, k=2, gamma=0.3)
    assert (sm.v, sm.r, sm.tp) == (2, 3, 1)
    assert sm.k_hit
    assert sm.fdp == pytest.approx(2.0 / 3.0)
    assert sm.fdp_exceeds
    assert sm.power == pytest.approx(0.5)
