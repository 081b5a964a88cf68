"""Feature-level solver: exactness on orthogonal designs, duality, references."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from stepslope import solver
from stepslope.schedules import bh_schedule, kfwer_schedule
from stepslope.simlab import (
    ExperimentConfig,
    _equicorr_matrices,
    gen_correlated_means,
    resolve_schedule,
)
from stepslope.solver import (
    DesignMatrix,
    FitResult,
    operator_norm_sq,
    slope_objective,
    solve_slope,
    support_metrics,
)
from stepslope.sorted_l1 import prox_sorted_l1, sorted_l1_norm

from oracles import certificate_reference, fista_direct_reference, ista_reference


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


@pytest.mark.parametrize("seed,m,sigma", [(0, 9, 1.0), (1, 60, 0.5), (2, 400, 2.0)])
def test_identity_without_matrix_equals_dense_identity(seed, m, sigma):
    rng = np.random.default_rng(seed)
    beta = np.zeros(m)
    beta[rng.choice(m, size=m // 5, replace=False)] = 3.0
    y = beta + sigma * rng.normal(size=m)
    for lam in (bh_schedule(m, 0.1).values, kfwer_schedule(m, 2, 0.1).values):
        fit = solve_slope(None, y, lam, sigma=sigma)
        dense = solve_slope(np.eye(m), y, lam, sigma=sigma)
        assert np.array_equal(fit.beta, dense.beta)
        assert fit.support == dense.support
        assert fit.converged and dense.converged
        assert fit.final_gap == dense.final_gap
        assert fit.objective == dense.objective
        assert slope_objective(None, y, fit.beta, lam, sigma) == fit.objective
        assert (fit.iterations, fit.matvecs) == (1, 0)
        assert dense.iterations == 1


def test_identity_without_matrix_checks_lengths():
    with pytest.raises(ValueError, match="schedule has length"):
        solve_slope(None, np.ones(5), np.ones(4))
    with pytest.raises(ValueError, match="response has shape"):
        solve_slope(None, np.ones((2, 3)), np.ones(6))
    with pytest.raises(ValueError, match="non-finite"):
        solve_slope(None, np.array([1.0, np.nan]), np.ones(2))


def _no_loop(*args):
    raise AssertionError("the identity design must not enter the FISTA loop")


@pytest.mark.parametrize("sigma", [1.0, 1.3])
def test_identity_fit_skips_the_fista_loop(monkeypatch, sigma):
    # one certified prox, with the counters of one iteration in one round
    rng = np.random.default_rng(21)
    y = 2.0 * rng.normal(size=30)
    lam = bh_schedule(30, 0.1).values
    monkeypatch.setattr(solver, "_fista", _no_loop)
    fit = solve_slope(None, y, lam, sigma=sigma)
    assert fit.beta.tobytes() == prox_sorted_l1(y, sigma * lam).tobytes()
    assert fit.objective == slope_objective(None, y, fit.beta, lam, sigma)
    r = y - fit.beta
    infeas, rel_gap = certificate_reference(y, r, fit.objective, np.abs(r), lam, sigma)
    assert fit.final_gap == pytest.approx(max(infeas, rel_gap), rel=1e-12, abs=1e-15)
    assert fit.converged
    assert (fit.iterations, fit.restarts, fit.backoffs, fit.matvecs, fit.rounds,
            fit.full_matvecs) == (1, 0, 0, 0, 1, 0)


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


def _assert_matches_direct_fista(fit, X, y, lam, L):
    b, iterations, restarts, _, _, converged = fista_direct_reference(
        X, y, lam, 1.0, 1e-8, 20000, L, prox_sorted_l1
    )
    assert fit.converged and converged
    assert (fit.iterations, fit.restarts) == (iterations, restarts)
    assert fit.support == {int(i) for i in np.flatnonzero(b)}
    np.testing.assert_allclose(fit.beta, b, rtol=0.0, atol=1e-12)
    # X^T y once, then X @ b_new per step tried (a restart or a back-off
    # tries one more) and X^T r per iteration
    assert fit.matvecs == 1 + (fit.iterations + fit.restarts + fit.backoffs) + fit.iterations


def _gaussian_problem(seed, n, m, common=0.0):
    rng = np.random.default_rng(seed)
    Z = rng.normal(size=(n, m)) + common * rng.normal(size=(n, 1))
    X = _unit_columns(Z)
    beta = np.zeros(m)
    beta[:5] = 3.0
    return X, X @ beta + rng.normal(size=n)


@pytest.mark.parametrize(
    "seed,n,m,common",
    [(0, 80, 40, 0.0), (1, 40, 80, 0.0), (2, 60, 60, 1.0)],
    ids=["tall", "wide", "correlated"],
)
def test_carried_gradient_matches_direct_fista(seed, n, m, common):
    X, y = _gaussian_problem(seed, n, m, common)
    lam = bh_schedule(m, 0.1).values
    fit = solve_slope(X, y, lam)
    assert fit.restarts > 0
    _assert_matches_direct_fista(fit, X, y, lam, operator_norm_sq(X))


@pytest.mark.parametrize(
    "seed,n,m,scale,sparse",
    [(3, 200, 800, 1.0, True), (5, 60, 60, 1e-3, False)],
    ids=["sparse-support", "dense-support"],
)
def test_restricted_residual_matches_direct_fista(seed, n, m, scale, sparse):
    # _fista on the full design forms X @ b_new from all of X, also while
    # the support is at most 1/16 of the columns, as the oracle does;
    # solve_slope would fit the sparse case on gathered columns instead
    X, y = _gaussian_problem(seed, n, m)
    lam = scale * bh_schedule(m, 0.1).values
    sizes = []

    def prox(v, step):
        b = prox_sorted_l1(v, step * lam)
        sizes.append(np.count_nonzero(b))
        return b, sorted_l1_norm(b, lam)

    # the zero start, with the X^T y it forms counted as the first matvec
    counts = [0, 0, 0, 1]
    b_fit, _, gap, obj, converged = solver._fista(
        X, y, lam, 1.0, 1e-8, 20000, prox, np.abs, (np.zeros(m), X.T @ y, y, 0.5 * float(y @ y)),
        counts)
    iters, restarts, backoffs, matvecs = counts
    fit = FitResult(b_fit, {int(i) for i in np.flatnonzero(b_fit)}, iters, gap, obj, converged,
                    restarts, backoffs, matvecs)
    if sparse:
        assert max(sizes) * 16 <= m
    else:
        assert min(sizes) * 16 > m
    counters = {}
    b, iterations, restarts, _, _, converged = fista_direct_reference(
        X, y, lam, 1.0, 1e-8, 20000, operator_norm_sq(X), prox_sorted_l1, counters
    )
    assert fit.converged and converged
    assert (fit.iterations, fit.restarts, fit.backoffs) == (
        iterations, restarts, counters["backoffs"])
    assert fit.matvecs == 1 + (iterations + restarts + counters["backoffs"]) + iterations
    assert fit.support == {int(i) for i in np.flatnonzero(b)}
    np.testing.assert_allclose(fit.beta, b, rtol=0.0, atol=1e-12)


def _proxy_block_problem(seed=0, n=40, copies=4):
    """Two signal columns, a third null one, and near-copies of a proxy.

    The proxy mixes both signal columns with noise, so it correlates with y
    and enters the first steps, but the optimum leaves it at zero.  Its
    near-copies give X most of its operator norm.
    """
    rng = np.random.default_rng(seed)
    A = _unit_columns(rng.normal(size=(n, 3)))
    proxy = A[:, 0] + A[:, 1] + 3.0 * _unit_columns(rng.normal(size=(n, 1)))[:, 0]
    B = _unit_columns(proxy[:, None] + 0.05 * rng.normal(size=(n, copies)))
    y = 6.0 * (A[:, 0] + A[:, 1]) + 0.3 * rng.normal(size=n)
    return np.hstack([A, B]), y


def test_step_backoff_recovers_from_underestimated_norm(monkeypatch):
    X, y = _proxy_block_problem()
    lam = bh_schedule(X.shape[1], 0.2).values
    norm_sq = np.linalg.norm(X, 2) ** 2
    monkeypatch.setattr(solver, "operator_norm_sq", lambda Z: norm_sq)
    plain = solve_slope(X, y, lam)
    assert plain.backoffs == 0
    # a step 1/low overshoots the quadratic upper bound along the proxy's
    # direction, so the loop must double its estimate
    low = 0.3 * norm_sq
    monkeypatch.setattr(solver, "operator_norm_sq", lambda Z: low)
    fit = solve_slope(X, y, lam)
    assert fit.backoffs > 0
    assert fit.converged and fit.final_gap <= 1e-8
    assert fit.support == plain.support
    # the retried step must start from the same point with the carried
    # gradient and residual, as the oracle's recomputed ones
    _assert_matches_direct_fista(fit, X, y, lam, low)


@pytest.mark.parametrize("seed", range(6))
def test_backtracking_converges_from_a_low_norm_estimate(monkeypatch, seed):
    # steps of 1/(0.3 ||X||^2) can stall without ever raising the objective,
    # so the estimate must double at the first step that overshoots the
    # quadratic upper bound, not when the objective rises
    rng = np.random.default_rng(seed)
    X = _unit_columns(rng.normal(size=(40, 20)))
    beta = np.zeros(20)
    beta[:4] = 3.0
    y = X @ beta + rng.normal(size=40)
    lam = bh_schedule(20, 0.2).values
    norm_sq = np.linalg.norm(X, 2) ** 2
    monkeypatch.setattr(solver, "operator_norm_sq", lambda Z: norm_sq)
    plain = solve_slope(X, y, lam)
    low = 0.3 * norm_sq
    monkeypatch.setattr(solver, "operator_norm_sq", lambda Z: low)
    fit = solve_slope(X, y, lam)
    assert fit.converged and fit.final_gap <= 1e-8
    assert fit.iterations <= 30 and fit.backoffs >= 1
    assert fit.support == plain.support
    _assert_matches_direct_fista(fit, X, y, lam, low)


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


def test_operator_norm_sq_identity_is_exactly_one():
    assert operator_norm_sq(np.eye(17)) == 1.0


@pytest.mark.parametrize(
    "n,rho", [(2, 0.5), (50, 0.0), (50, 0.5), (1000, 0.3), (1000, 0.9)]
)
def test_operator_norm_sq_equicorrelated_operator(n, rho):
    # every column of a(I - J/n) + cJ/n has the same norm, read off in O(1);
    # W^T W = (1/lo)(I - J/n) + (1/hi) J/n, and root^T root is the covariance
    W, root = _equicorr_matrices(n, rho)
    lo, hi = 1.0 - rho, 1.0 - rho + n * rho
    for M, top in ((W, max(1.0 / lo, 1.0 / hi)), (root, max(lo, hi))):
        got = operator_norm_sq(M)
        assert got == pytest.approx(operator_norm_sq(M @ np.eye(n)), rel=1e-12)
        assert got <= top * (1.0 + 1e-12)


@pytest.mark.parametrize("method,rho", [("k-slope", 0.5), ("f-slope", 0.8)])
def test_equicorrelated_operator_fit_matches_dense_matrix(method, rho):
    config = ExperimentConfig(design="correlated-means", method=method, n=300, m=300,
                              t=8, k=3, rho=rho, seed=5, replications=3)
    _, lam, _ = resolve_schedule(config)
    for rep in range(config.replications):
        data = gen_correlated_means(config, rep)
        W, y = data.design, data.y
        dense = DesignMatrix(W @ np.eye(300), require_unit_columns=False)
        fit = solve_slope(W, y, lam)
        want = solve_slope(dense, y, lam)
        assert fit.converged and want.converged
        assert fit.support == want.support
        assert (fit.iterations, fit.restarts, fit.backoffs, fit.matvecs) == (
            want.iterations, want.restarts, want.backoffs, want.matvecs)
        np.testing.assert_allclose(fit.beta, want.beta, rtol=0.0, atol=1e-10)
        assert slope_objective(W, y, fit.beta, lam) == pytest.approx(fit.objective, rel=1e-12)


@pytest.mark.parametrize("n,rho", [(2, 0.5), (50, 0.0), (300, 0.8)])
def test_equicorrelated_columns_equal_dense_columns(n, rho):
    for M in _equicorr_matrices(n, rho):
        dense = M @ np.eye(n)
        for idx in ([0], [n - 1, 0], list(range(0, n, 3)), []):
            got = M.columns(np.array(idx, dtype=int))
            assert got.shape == (n, len(idx))
            assert got.tobytes() == np.ascontiguousarray(dense[:, idx]).tobytes()


def test_diagonal_operator_equals_the_dense_diagonal_bitwise():
    # the identity group fit's diag(1/w): products, gathered columns and the
    # step-size start are those of the dense diagonal, byte for byte
    d = 1.0 / np.sqrt(np.random.default_rng(13).integers(3, 8, size=40))
    D = solver._DiagonalPlusConstant(d.size, d, 0.0)
    dense = np.diag(d)
    v = np.random.default_rng(14).normal(size=40)
    for got, want in ((D @ v, dense @ v), (D.T @ v, dense.T @ v),
                      (D @ np.eye(40), dense), (D.columns([5, 0, 39]), dense[:, [5, 0, 39]])):
        assert got.tobytes() == np.ascontiguousarray(want).tobytes()
    assert operator_norm_sq(D) == operator_norm_sq(dense) == float(d.max() ** 2)


def _masked_problem(seed=1, n=100, m=400):
    """Column 1 is built at correlation -1/2 with column 0 and y gives it
    half the coefficient, so x_1^T y nearly cancels at b = 0; once column 0
    is fitted, the residual's correlation with column 1 is large."""
    rng = np.random.default_rng(seed)
    X = _unit_columns(rng.normal(size=(n, m)))
    X[:, 1] = _unit_columns(-0.5 * X[:, 0] + np.sqrt(0.75) * _unit_columns(rng.normal(size=n)))
    y = 12.0 * X[:, 0] + 8.0 * X[:, 1] + 0.3 * rng.normal(size=n)
    return X, y


_GRID = st.sampled_from([0.0, 0.5, 1.0, 2.0])


@given(
    st.tuples(st.integers(1, 30), st.integers(1, 8)).flatmap(lambda mn: st.tuples(
        hnp.arrays(np.float64, mn[0], elements=st.one_of(_GRID, st.floats(0, 10))),
        hnp.arrays(np.float64, mn[0], elements=st.one_of(_GRID, st.floats(0, 10))),
        hnp.arrays(np.float64, mn[1], elements=st.floats(-10, 10)),
        hnp.arrays(np.float64, mn[1], elements=st.floats(-10, 10)),
    )),
    st.sampled_from([0.01, 1.0, 100.0]),
    st.sampled_from([1.0, 0.37, 2.5]),
    st.floats(0, 100),
    st.sampled_from([1e-8, 1e-3, 0.5]),
)
@settings(max_examples=400, deadline=None)
def test_certificate_equals_the_oracle_bitwise(arrays, scale, sigma, obj, tol):
    # ties and exact zeros from the grid; the scale of h makes it feasible,
    # infeasible or in between, so both dual points (r, s * r) occur
    h, w, y, r = arrays
    h = scale * h
    w = np.sort(w)[::-1]
    gap, certified = solver._certify(y, r, h, obj, sigma, solver._prefix_sums(w, sigma), tol)
    infeas, rel_gap = certificate_reference(y, r, obj, h, w, sigma)
    assert np.float64(gap).tobytes() == np.float64(max(infeas, rel_gap)).tobytes()
    assert certified == (infeas <= tol and rel_gap <= tol)


def test_working_set_grows_to_a_column_masked_at_zero():
    X, y = _masked_problem()
    lam = bh_schedule(X.shape[1], 0.1).values
    assert 1 not in solver._violators(np.abs(X.T @ y), np.cumsum(lam))
    fit = solve_slope(X, y, lam)
    assert fit.converged and fit.rounds >= 2 and 1 in fit.support
    assert fit.full_matvecs < fit.matvecs
    # the certificate, recomputed on the full design from beta alone
    r = y - X @ fit.beta
    obj = 0.5 * float(r @ r) + float(np.sort(np.abs(fit.beta))[::-1] @ lam)
    infeas, rel_gap = certificate_reference(y, r, obj, np.abs(X.T @ r), lam, 1.0)
    assert infeas <= 1e-8 and rel_gap <= 1e-8
    b, _, _, obj, converged = solver._fista(
        X, y, lam, 1.0, 1e-8, 20000, solver._sorted_l1_prox(lam), np.abs,
        (np.zeros(X.shape[1]), X.T @ y, y, 0.5 * float(y @ y)), [0, 0, 0, 1])
    assert converged
    assert fit.support == {int(i) for i in np.flatnonzero(b)}
    assert fit.objective == pytest.approx(obj, rel=1e-8)


def test_working_set_checks_the_arguments_once(monkeypatch):
    calls = []
    checked = solver._checked

    def counted(*args):
        calls.append(args)
        return checked(*args)

    monkeypatch.setattr(solver, "_checked", counted)
    X, y = _masked_problem()
    fit = solve_slope(X, y, bh_schedule(X.shape[1], 0.1).values)
    assert fit.converged and fit.rounds >= 2
    assert len(calls) == 1


def test_working_set_shares_the_iteration_cap():
    X, y = _masked_problem()
    fit = solve_slope(X, y, bh_schedule(X.shape[1], 0.1).values, max_iter=2)
    assert fit.rounds == 2
    assert not fit.converged and fit.iterations <= 2 and fit.final_gap > 1e-8


@pytest.mark.parametrize(
    "shape",
    [(40, 15), (15, 40), (1, 30), (30, 1), "rank-deficient", "group-prox-diagonal"],
)
def test_operator_norm_sq_shapes_match_numpy(shape):
    # the step-size start of _fista is the largest squared column norm, a
    # lower bound on ||X||^2 that its backtracking doubles where too small
    rng = np.random.default_rng(12)
    if shape == "rank-deficient":
        X = rng.normal(size=(40, 5)) @ rng.normal(size=(5, 60))
    elif shape == "group-prox-diagonal":
        # the diag(1/w) of an unequal-weight identity group fit, where the
        # bound is ||X||^2 itself
        X = np.diag(1.0 / np.array([0.5, 2.0, 1.25, 4.0]))
    else:
        X = rng.normal(size=shape)
    got = operator_norm_sq(X)
    assert got == pytest.approx((X * X).sum(axis=0).max(), rel=1e-12)
    assert got <= np.linalg.norm(X, 2) ** 2 * (1.0 + 1e-12)
    if shape == "group-prox-diagonal":
        assert got == np.linalg.norm(X, 2) ** 2


def test_operator_norm_sq_zero_matrix_is_zero():
    assert operator_norm_sq(np.zeros((6, 9))) == 0.0


def test_operator_norm_sq_is_deterministic():
    X = np.random.default_rng(15).normal(size=(120, 70))
    first = operator_norm_sq(X)
    assert operator_norm_sq(X) == first


def test_design_matrix_validation():
    with pytest.raises(ValueError, match="unit norm"):
        DesignMatrix(np.array([[2.0, 0.0], [0.0, 1.0]]))
    waived = DesignMatrix(np.array([[2.0, 0.0], [0.0, 1.0]]), require_unit_columns=False)
    assert not waived.require_unit_columns
    assert DesignMatrix(np.eye(3)).require_unit_columns
    with pytest.raises(ValueError, match="non-finite"):
        DesignMatrix(np.array([[np.nan, 0.0], [0.0, 1.0]]))
    with pytest.raises(ValueError, match="2-d"):
        DesignMatrix(np.ones(4))


@pytest.mark.parametrize("unit", [True, False])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_design_matrix_rejects_a_single_non_finite_entry(bad, unit):
    X = np.eye(3)
    X[1, 2] = bad
    with pytest.raises(ValueError, match="design contains non-finite entries"):
        DesignMatrix(X, require_unit_columns=unit)


def test_design_matrix_overflowing_finite_column_fails_only_the_unit_norm_check():
    # every entry is finite but the column's sum of squares overflows to inf
    X = np.eye(3)
    X[:, 1] = 1e200
    with pytest.raises(ValueError, match="unit norm"):
        DesignMatrix(X)
    waived = DesignMatrix(X, require_unit_columns=False)
    assert np.array_equal(waived.entries, X)


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
    with pytest.raises(ValueError, match="tol"):
        solve_slope(X, y, lam, tol=0.0)
    with pytest.raises(ValueError, match="max_iter"):
        solve_slope(X, y, lam, max_iter=0)


@pytest.mark.parametrize("identity", [True, False], ids=["identity", "dense"])
@pytest.mark.parametrize(
    "kw,msg",
    [(dict(tol=np.inf), "tol must be positive and finite, got inf"),
     (dict(sigma=np.inf), "sigma must be positive and finite, got inf"),
     (dict(max_iter=2.5), r"max_iter must be a positive integer, got 2\.5")],
)
def test_solve_refuses_infinite_scales_and_a_fractional_cap(kw, msg, identity):
    # tol=inf reported a fit converged after one iteration without its
    # certificate; sigma=inf failed inside the loop as a NumericalError
    X, y = _masked_problem()
    X = None if identity else X
    with pytest.raises(ValueError, match=msg):
        solve_slope(X, y, bh_schedule(len(y) if X is None else X.shape[1], 0.1).values,
                    **kw)


@pytest.mark.parametrize("identity", [True, False], ids=["identity", "dense"])
@pytest.mark.parametrize("where,bad", [(0, np.inf), (3, np.nan)], ids=["inf", "nan"])
def test_solve_refuses_a_non_finite_schedule_entry(where, bad, identity):
    X, y = _masked_problem()
    X = None if identity else X
    lam = bh_schedule(len(y) if X is None else X.shape[1], 0.1).values.copy()
    lam[where] = bad
    with pytest.raises(ValueError, match="non-negative, non-increasing and finite"):
        solve_slope(X, y, lam)


def test_support_metrics_counts():
    sm = support_metrics({0, 1, 2, 7}, {1, 2, 3}, k=2, gamma=0.5)
    assert (sm.v, sm.r, sm.tp) == (2, 4, 2)
    assert sm.fdp == pytest.approx(0.5)
    assert sm.k_hit
    assert not sm.fdp_exceeds
    assert sm.power == pytest.approx(2.0 / 3.0)


def test_support_metrics_accepts_fit_and_empty_truth():
    fit = FitResult(np.array([0.0, 1.0]), {1}, 3, 0.0, 0.0, True)
    assert (fit.restarts, fit.backoffs, fit.matvecs) == (0, 0, 0)
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
