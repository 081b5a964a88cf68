"""Feature-level solver: exactness on orthogonal designs, duality, references."""
import numpy as np
import pytest
import scipy.sparse.linalg

from stepslope.errors import NumericalError
from stepslope.schedules import bh_schedule, kfwer_schedule
from stepslope.solver import (
    DesignMatrix,
    FitResult,
    operator_norm_sq,
    slope_objective,
    solve_slope,
    support_metrics,
)
from stepslope.sorted_l1 import prox_sorted_l1

from oracles import ista_reference


def _unit_columns(X):
    return X / np.sqrt((X * X).sum(axis=0))


def _random_design(rng, n, m):
    return DesignMatrix(_unit_columns(rng.normal(size=(n, m))))


def test_identity_design_is_exact_prox():
    rng = np.random.default_rng(0)
    y = rng.normal(size=9)
    lam = bh_schedule(9, 0.1).values
    fit = solve_slope(np.eye(9), y, lam)
    assert np.array_equal(fit.beta, prox_sorted_l1(y, lam))
    assert fit.converged
    assert fit.iterations == 1


def test_identity_design_zero_lambda_returns_y():
    y = np.array([1.5, -2.0, 0.0, 3.25, -0.5])
    fit = solve_slope(np.eye(5), y, np.zeros(5))
    assert np.array_equal(fit.beta, y)
    assert fit.support == {0, 1, 3, 4}


def test_orthonormal_columns_reduce_to_prox():
    rng = np.random.default_rng(3)
    for _ in range(10):
        n, m = 15, 6
        Q, _ = np.linalg.qr(rng.normal(size=(n, m)))
        y = rng.normal(size=n)
        lam = bh_schedule(m, 0.2).values
        fit = solve_slope(DesignMatrix(Q), y, lam, tol=1e-10)
        want = prox_sorted_l1(Q.T @ y, lam)
        assert np.max(np.abs(fit.beta - want)) < 1e-8


def test_zero_lambda_matches_least_squares():
    rng = np.random.default_rng(4)
    design = _random_design(rng, 30, 8)
    y = rng.normal(size=30)
    fit = solve_slope(design, y, np.zeros(8), tol=1e-10)
    want, *_ = np.linalg.lstsq(design.entries, y, rcond=None)
    assert np.max(np.abs(fit.beta - want)) < 1e-6


def test_matches_plain_proximal_gradient_reference():
    rng = np.random.default_rng(5)
    for trial in range(5):
        design = _random_design(rng, 25, 10)
        y = rng.normal(size=25)
        lam = bh_schedule(10, 0.2).values
        fit = solve_slope(design, y, lam, tol=1e-12)
        ref = ista_reference(design.entries, y, lam, 1.0)
        assert np.max(np.abs(fit.beta - ref)) < 1e-6


def test_solution_beats_perturbations():
    rng = np.random.default_rng(6)
    design = _random_design(rng, 20, 7)
    y = rng.normal(size=20)
    lam = kfwer_schedule(7, 2, 0.2).values
    fit = solve_slope(design, y, lam, tol=1e-12)
    f_star = slope_objective(design, y, fit.beta, lam)
    assert fit.objective == pytest.approx(f_star, rel=1e-12)
    for _ in range(60):
        cand = fit.beta + rng.normal(0.0, 0.03, size=7)
        assert f_star <= slope_objective(design, y, cand, lam) + 1e-10


def test_converged_gap_below_tolerance():
    rng = np.random.default_rng(7)
    design = _random_design(rng, 40, 12)
    y = rng.normal(size=40)
    fit = solve_slope(design, y, bh_schedule(12, 0.1).values, tol=1e-9)
    assert fit.converged
    assert fit.final_gap <= 1e-9


def test_sigma_equals_scaled_schedule():
    rng = np.random.default_rng(8)
    design = _random_design(rng, 25, 9)
    y = rng.normal(size=25)
    lam = bh_schedule(9, 0.15).values
    a = solve_slope(design, y, lam, sigma=2.0, tol=1e-11)
    b = solve_slope(design, y, 2.0 * lam, sigma=1.0, tol=1e-11)
    assert np.max(np.abs(a.beta - b.beta)) < 1e-8


def test_max_iter_cap_flags_not_converged():
    rng = np.random.default_rng(9)
    design = _random_design(rng, 30, 10)
    y = design.entries @ np.full(10, 4.0) + rng.normal(size=30)
    fit = solve_slope(design, y, bh_schedule(10, 0.1).values, tol=1e-14, max_iter=2)
    assert not fit.converged
    assert fit.iterations == 2


def test_strong_penalty_yields_empty_support():
    rng = np.random.default_rng(10)
    design = _random_design(rng, 20, 6)
    y = 0.01 * rng.normal(size=20)
    lam = np.full(6, 50.0)
    fit = solve_slope(design, y, lam)
    assert fit.support == set()
    assert np.array_equal(fit.beta, np.zeros(6))


def test_operator_norm_sq_matches_numpy():
    rng = np.random.default_rng(11)
    for n, m in ((10, 4), (30, 30), (8, 20)):
        X = rng.normal(size=(n, m))
        want = np.linalg.norm(X, 2) ** 2
        assert operator_norm_sq(X, tol=1e-10) == pytest.approx(want, rel=1e-6)


def test_operator_norm_sq_identity_is_exactly_one():
    assert operator_norm_sq(np.eye(17)) == 1.0


def test_operator_norm_sq_equicorrelation_dominant_eigenvalue():
    # the all-ones direction carries the small eigenvalue of this whitener,
    # so a naive all-ones start would stall; the ramped start must not
    n = 50
    rho = 0.5
    lo, hi = 1.0 - rho, 1.0 - rho + n * rho
    a, b = 1.0 / np.sqrt(lo), 1.0 / np.sqrt(hi)
    W = np.full((n, n), (b - a) / n)
    W[np.diag_indices(n)] += a
    assert operator_norm_sq(W, tol=1e-12) == pytest.approx(1.0 / lo, rel=1e-8)


@pytest.mark.parametrize(
    "shape", [(40, 15), (15, 40), (1, 30), (30, 1), "rank-deficient"]
)
def test_operator_norm_sq_shapes_match_numpy(shape):
    rng = np.random.default_rng(12)
    if shape == "rank-deficient":
        X = rng.normal(size=(40, 5)) @ rng.normal(size=(5, 60))
    else:
        X = rng.normal(size=shape)
    want = np.linalg.norm(X, 2) ** 2
    assert operator_norm_sq(X, tol=1e-12) == pytest.approx(want, rel=1e-10)


def test_operator_norm_sq_zero_matrix_is_zero():
    assert operator_norm_sq(np.zeros((6, 9))) == 0.0


def test_operator_norm_sq_converges_on_large_gaussian():
    # a 500-step power iteration does not converge on this shape
    X = np.random.default_rng(13).normal(size=(2000, 4000)) / np.sqrt(2000)
    top = scipy.sparse.linalg.svds(X, k=1, v0=np.ones(2000), return_singular_vectors=False)
    assert operator_norm_sq(X) == pytest.approx(float(top[0]) ** 2, rel=1e-5)


def test_operator_norm_sq_raises_at_step_cap():
    X = np.random.default_rng(14).normal(size=(200, 400))
    with pytest.raises(NumericalError, match="Lanczos steps"):
        operator_norm_sq(X, max_iter=3)


def test_operator_norm_sq_is_deterministic():
    X = np.random.default_rng(15).normal(size=(120, 70))
    first = operator_norm_sq(X)
    assert operator_norm_sq(X) == first


def test_design_matrix_validation():
    with pytest.raises(ValueError, match="unit norm"):
        DesignMatrix(np.array([[2.0, 0.0], [0.0, 1.0]]))
    waived = DesignMatrix(np.array([[2.0, 0.0], [0.0, 1.0]]), require_unit_columns=False)
    assert not waived.column_norms_validated
    assert DesignMatrix(np.eye(3)).column_norms_validated
    with pytest.raises(ValueError, match="non-finite"):
        DesignMatrix(np.array([[np.nan, 0.0], [0.0, 1.0]]))
    with pytest.raises(ValueError, match="2-d"):
        DesignMatrix(np.ones(4))


def test_solve_input_validation():
    X = np.eye(4)
    y = np.zeros(4)
    lam = np.zeros(4)
    with pytest.raises(ValueError, match="response has shape"):
        solve_slope(X, np.zeros(3), lam)
    with pytest.raises(ValueError, match="non-finite"):
        solve_slope(X, np.array([1.0, np.inf, 0.0, 0.0]), lam)
    with pytest.raises(ValueError, match="schedule has length"):
        solve_slope(X, y, np.zeros(3))
    with pytest.raises(ValueError, match="sigma"):
        solve_slope(X, y, lam, sigma=0.0)
    with pytest.raises(ValueError, match="max_iter"):
        solve_slope(X, y, lam, max_iter=0)


def test_support_metrics_counts():
    sm = support_metrics({0, 1, 2, 7}, {1, 2, 3}, k=2, gamma=0.5)
    assert (sm.v, sm.r, sm.tp) == (2, 4, 2)
    assert sm.fdp == pytest.approx(0.5)
    assert sm.k_hit
    assert not sm.fdp_exceeds
    assert sm.power == pytest.approx(2.0 / 3.0)


def test_support_metrics_accepts_fit_and_empty_truth():
    fit = FitResult(np.array([0.0, 1.0]), {1}, 3, 0.0, 0.0, True)
    sm = support_metrics(fit, set(), k=1, gamma=0.1)
    assert sm.power == 1.0
    assert sm.v == 1 and sm.r == 1
    assert sm.fdp == 1.0 and sm.fdp_exceeds and sm.k_hit
    empty = support_metrics(set(), set(), k=1, gamma=0.1)
    assert empty.fdp == 0.0 and empty.power == 1.0


def test_support_metrics_validation():
    with pytest.raises(ValueError, match="k"):
        support_metrics(set(), set(), k=0, gamma=0.1)
    with pytest.raises(ValueError, match="gamma"):
        support_metrics(set(), set(), k=1, gamma=1.0)
