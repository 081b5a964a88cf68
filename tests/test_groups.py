"""Group partition, standardization, block prox, and the group solver."""
import tracemalloc

import numpy as np
import pytest

from stepslope import groups, solver
from stepslope.errors import NumericalError
from stepslope.groups import (
    GroupPartition,
    group_prox,
    group_support_metrics,
    solve_group_slope,
    standardize,
)
from stepslope.schedules import bh_schedule, gf_schedule, gk_schedule
from stepslope.solver import DesignMatrix, solve_slope
from stepslope.sorted_l1 import prox_sorted_l1, sorted_l1_norm

from oracles import (
    certificate_reference,
    group_fista_direct_reference,
    group_prox_grid,
    standardize_reference,
)


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
    assert sp.x_tilde.shape == (15, 3) and sp.x_tilde.flags.f_contiguous
    U = sp.x_tilde[:, sp.block(0)]
    assert np.allclose(U @ sp.r_factors[0], X[:, :2], atol=1e-12)


def test_standardize_rejects_zero_block():
    X = np.zeros((10, 2))
    X[:, 1] = 1.0
    with pytest.raises(ValueError, match="all-zero design block"):
        standardize(X, GroupPartition.from_sizes((1, 1)))
    with pytest.raises(ValueError, match="at least one row and column"):
        standardize(np.zeros((0, 3)), GroupPartition.from_sizes((2, 1)))


def test_standardize_rejects_partition_mismatch():
    with pytest.raises(ValueError, match="partition covers"):
        standardize(np.eye(4), GroupPartition.from_sizes((2, 3)))


def test_standardize_rejects_a_non_finite_raw_array():
    X = np.eye(4)
    X[2, 1] = np.nan
    with pytest.raises(ValueError, match="design contains non-finite entries"):
        standardize(X, GroupPartition.from_sizes((2, 2)))


def test_standardize_design_matrix_allocates_one_design():
    # a shape no other test uses; the peak counts only what standardize
    # allocates, as the design exists before tracing starts
    n, sizes = 700, (3, 4, 5, 6, 7) * 36
    part = GroupPartition.from_sizes(sizes)
    design = DesignMatrix(_unit_columns(np.random.default_rng(3).normal(
        size=(n, part.num_features))))
    tracemalloc.start()
    try:
        sp = standardize(design, part)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sum(sp.ranks) == part.num_features
    assert peak < 1.1 * design.entries.nbytes


def _shuffled_partition(rng, sizes):
    idx = rng.permutation(sum(sizes))
    ends = np.cumsum(sizes)
    return GroupPartition(tuple(tuple(idx[e - s:e]) for s, e in zip(sizes, ends)))


def _collinear(rng, n, sizes, copies):
    """Gaussian n x sum(sizes) design; column j repeats column j - 1 scaled, for j in copies."""
    X = rng.normal(size=(n, sum(sizes)))
    for j in copies:
        X[:, j] = -3.0 * X[:, j - 1]
    return X, GroupPartition.from_sizes(sizes)


def _oracle_case(name):
    rng = np.random.default_rng(11)
    if name == "mixed-contiguous":
        sizes = (3, 4, 5, 6, 7) * 2
        return rng.normal(size=(33, sum(sizes))), GroupPartition.from_sizes(sizes)
    if name == "shuffled":
        sizes = (3, 1, 5, 2, 4, 6)
        return rng.normal(size=(29, sum(sizes))), _shuffled_partition(rng, sizes)
    if name == "wide":
        # n < size: R is n x size and the basis has only n columns
        return rng.normal(size=(4, 10)), GroupPartition.from_sizes((6, 4))
    if name == "wide-collinear":
        return _collinear(rng, 4, (5, 2), copies=(1, 2, 3))
    if name == "large-blocks":
        # past LAPACK's crossover to blocked geqp3 and orgqr (128 columns)
        return rng.normal(size=(161, 183)), GroupPartition.from_sizes((40, 2, 141))
    if name == "rank-deficient":
        # block 1 (columns 3..6) and the last block (7..9) each lose a rank
        return _collinear(rng, 21, (3, 4, 3), copies=(5, 9))
    if name == "singletons":
        return rng.normal(size=(10, 8)), GroupPartition.from_sizes((1,) * 8)
    raise KeyError(name)


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("case", ["mixed-contiguous", "shuffled", "wide", "wide-collinear",
                                  "large-blocks", "rank-deficient", "singletons"])
def test_standardize_matches_the_qr_wrapper_bytes(case, order):
    X, part = _oracle_case(case)
    X = np.asarray(X, order=order)
    x_tilde, factors, ranks = standardize_reference(X, part.groups)
    sp = standardize(X, part)
    assert sp.ranks == ranks
    assert sp.x_tilde.shape == x_tilde.shape and sp.x_tilde.flags.f_contiguous
    assert sp.x_tilde.tobytes() == x_tilde.tobytes()
    assert len(sp.r_factors) == len(factors)
    for got, want in zip(sp.r_factors, factors):
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
    if case == "rank-deficient":
        assert ranks == (3, 3, 2)
    if case == "wide-collinear":
        assert ranks == (2, 2)


def test_standardize_shuffled_zero_block_is_rejected():
    X = np.random.default_rng(4).normal(size=(6, 5))
    X[:, [1, 3]] = 0.0
    with pytest.raises(ValueError, match="group 1 has an all-zero design block"):
        standardize(X, GroupPartition(((0, 2), (3, 1), (4,))))


@pytest.mark.parametrize("routine", ["geqp3", "orgqr"])
def test_standardize_raises_on_a_lapack_failure(monkeypatch, routine):
    # the routine reports an illegal second argument on group 1's factor call
    real = groups.get_lapack_funcs
    calls = []

    def failing(names, *args, **kwargs):
        funcs = real(names, *args, **kwargs)

        def wrap(name, func):
            def call(*a, **kw):
                *out, info = func(*a, **kw)
                if name == routine and kw["lwork"] != -1:
                    calls.append(name)
                    if len(calls) == 2:
                        return (*out, -2)
                return (*out, info)
            return call

        return tuple(wrap(name, func) for name, func in zip(names, funcs))

    monkeypatch.setattr(groups, "get_lapack_funcs", failing)
    X = np.random.default_rng(5).normal(size=(12, 7))
    with pytest.raises(NumericalError, match=f"group 1: LAPACK {routine} failed with info=-2"):
        standardize(X, GroupPartition.from_sizes((3, 2, 2)))


def test_standardize_queries_each_workspace_once(monkeypatch):
    # five block widths; a query per width and routine would make ten
    real = groups.get_lapack_funcs
    queries = []

    def spying(names, *args, **kwargs):
        def wrap(name, func):
            def call(*a, **kw):
                if kw["lwork"] == -1:
                    queries.append(name)
                return func(*a, **kw)
            return call

        return tuple(wrap(name, func) for name, func in zip(names, real(names, *args, **kwargs)))

    monkeypatch.setattr(groups, "get_lapack_funcs", spying)
    X, part = _oracle_case("mixed-contiguous")
    standardize(X, part)
    assert sorted(queries) == ["geqp3", "orgqr"]


def test_standardize_shuffled_partition_allocates_one_design():
    # the gather path copies each block straight into its slot of x_tilde
    n, sizes = 650, (3, 4, 5, 6, 7) * 36
    part = _shuffled_partition(np.random.default_rng(6), sizes)
    design = DesignMatrix(_unit_columns(np.random.default_rng(7).normal(
        size=(n, part.num_features))))
    tracemalloc.start()
    try:
        sp = standardize(design, part)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sum(sp.ranks) == part.num_features
    assert peak < 1.1 * design.entries.nbytes


@pytest.mark.parametrize("design, error, match", [
    (None, ValueError, "2-d array"),
    (solver._DiagonalPlusConstant(4, 1.0, 0.0), TypeError, "_DiagonalPlusConstant"),
], ids=["identity", "operator"])
def test_the_qr_refuses_a_matrix_free_design(design, error, match):
    part = GroupPartition.from_sizes((2, 2))
    with pytest.raises(error, match=match):
        standardize(design, part)
    if design is not None:
        with pytest.raises(error, match=match):
            solve_group_slope(design, np.ones(4), part, np.ones(2))


def test_group_prox_equal_weights_closed_form():
    # a weight w shared by every group enters as the step: J(w g) = w J(g)
    v = np.array([3.0, 1.0, 0.2])
    lam = np.array([1.0, 0.5, 0.25])
    got = group_prox(v, lam, step=0.3 * 2.0)
    want = np.maximum(prox_sorted_l1(v, 0.3 * 2.0 * lam), 0.0)
    assert np.array_equal(got, want)


def test_group_prox_needs_no_clip_on_non_negative_targets():
    # each prox entry is a clipped fit >= 0 times sign(v_i) >= 0, so a clip at
    # zero changes no byte; targets with zeros and -0.0, constant weights
    rng = np.random.default_rng(21)
    for _ in range(2000):
        t = int(rng.integers(1, 12))
        v = rng.exponential(size=t) * rng.choice([1e-3, 1.0, 1e3])
        v[rng.random(t) < 0.3] = 0.0
        v[rng.random(t) < 0.2] = -0.0
        lam = np.sort(rng.uniform(0.0, 2.0, size=t))[::-1]
        if rng.random() < 0.3:
            lam[:] = lam[0]
        step = float(rng.choice([0.0, rng.uniform(0.0, 3.0)]))
        got = group_prox(v, lam, step)
        clipped = np.maximum(prox_sorted_l1(v, step * lam), 0.0)
        assert got.tobytes() == clipped.tobytes(), (v, lam, step)


def test_group_prox_matches_grid_oracle_unequal_weights():
    # unequal weights reach no prox: the identity group fit solves the
    # weighted block-norm problem, on blocks of size 2 with norms v
    rng = np.random.default_rng(2)
    for _ in range(5):
        t = int(rng.integers(2, 4))
        v = rng.uniform(0.0, 3.0, size=t)
        w = rng.uniform(0.5, 2.0, size=t)
        lam = np.sort(rng.uniform(0.1, 1.5, size=t))[::-1]
        step = float(rng.uniform(0.2, 1.0))
        directions = rng.normal(size=(t, 2))
        y = (directions / np.linalg.norm(directions, axis=1)[:, None] * v[:, None]).ravel()
        part = GroupPartition.from_sizes((2,) * t, w)
        got = solve_group_slope(None, y, part, lam, sigma=step, tol=1e-12).group_norms

        def objective(g):
            mags = np.sort(w * g)[::-1]
            return 0.5 * np.sum((g - v) ** 2) + step * np.sum(lam * mags)

        ref = group_prox_grid(v, w, lam, step)
        assert objective(got) <= objective(ref) + 1e-6
        assert np.max(np.abs(got - ref)) < 5e-2


def test_group_prox_zero_step_returns_targets():
    v = np.array([2.0, 0.0, 1.5])
    got = group_prox(v, np.array([1.0, 0.5, 0.2]), step=0.0)
    assert np.array_equal(got, v)


def test_group_prox_validation():
    with pytest.raises(ValueError, match="schedule has length 3, expected 2"):
        group_prox(np.ones(2), np.ones(3), 1.0)
    with pytest.raises(ValueError, match="non-negative"):
        group_prox(np.array([-1.0]), np.ones(1), 1.0)
    with pytest.raises(ValueError, match="step"):
        group_prox(np.ones(1), np.ones(1), -0.5)


@pytest.mark.parametrize("step", [np.nan, np.inf], ids=repr)
@pytest.mark.parametrize("weight", [1.0], ids=["equal"])
def test_group_prox_refuses_a_non_finite_step(step, weight):
    # an equal-weight NaN step returned NaNs; the shared weight is part of
    # the step the block prox passes
    with pytest.raises(ValueError, match="step must be non-negative and finite"):
        group_prox(np.ones(2), np.array([1.0, 0.5]), step * weight)


def test_partition_and_group_prox_refuse_an_infinite_weight():
    # group_prox takes no weights: the partition is where they are checked
    with pytest.raises(ValueError, match="group weights must be positive and finite"):
        GroupPartition(((0,), (1,)), np.array([1.0, np.inf]))


@pytest.mark.parametrize("text,msg", [("nan", "must be positive, got nan"),
                                      ("inf", "must be positive and finite, got inf"),
                                      ("0", "must be positive, got 0.0")])
def test_partition_csv_checks_each_weight_before_comparing(tmp_path, text, msg):
    # NaN != NaN: a one-row group with a NaN weight was said to have
    # conflicting weights
    path = tmp_path / "bad.csv"
    path.write_text(f"0,0,{text}\n1,1,1.0\n")
    with pytest.raises(ValueError, match=f"group 0 weight {msg}"):
        GroupPartition.from_csv(path)


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
    gstar = group_prox(gz, lam, part.weights[0])
    want = y * np.repeat(gstar / gz, 2)
    assert np.max(np.abs(fit.beta - want)) < 1e-10
    assert np.allclose(fit.group_norms, gstar, atol=1e-12)


def _dense_diagonal_route(part, y, lam, sigma, **kw):
    """(beta, group norms, feature fit) of an identity group fit by the route
    it once took: solve_slope on the dense t x t diagonal diag(1/w) for the
    block norms v, then each block of y rescaled to its fitted norm."""
    order = part.order
    z = y[order]
    ranks = np.asarray(part.sizes)
    offsets = np.concatenate(([0], np.cumsum(ranks[:-1])))
    v = np.sqrt(np.add.reduceat(z * z, offsets))
    w = part.weights
    fit = solve_slope(DesignMatrix(np.diag(1.0 / w), require_unit_columns=False), v, lam,
                      sigma, **kw)
    gstar = np.maximum(fit.beta, 0.0) / w
    c = z * np.repeat(np.divide(gstar, v, out=np.zeros_like(v), where=v > 0.0), ranks)
    beta = np.zeros(part.num_features)
    beta[order] = c
    return beta, np.sqrt(np.add.reduceat(c * c, offsets)), fit


def _unequal_identity_problem(seed, scheme="sqrt", num_groups=200):
    """Groups of sizes 3..7 with unequal weights, and y with a tenth of the
    groups at signal 5 plus unit noise."""
    rng = np.random.default_rng(seed)
    sizes = tuple(int(s) for s in rng.integers(3, 8, size=num_groups))
    w = np.sqrt(sizes) if scheme == "sqrt" else 1.0 / np.sqrt(sizes)
    part = GroupPartition.from_sizes(sizes, w)
    beta = np.zeros(part.num_features)
    for g in rng.choice(num_groups, size=num_groups // 10, replace=False):
        beta[list(part.groups[g])] = 5.0
    return part, beta + rng.normal(size=part.num_features)


@pytest.mark.parametrize("scheme", ["sqrt", "inv-sqrt"])
@pytest.mark.parametrize("rule", ["gk", "gf", "bh"])
def test_unequal_weight_identity_fit_keeps_the_dense_diagonal_bytes(scheme, rule):
    # the O(t) operator's products add no term where the dense diagonal's
    # add exact zeros, so the fit reproduces the dense route bit for bit
    for seed in range(3):
        part, y = _unequal_identity_problem(seed, scheme, num_groups=60)
        w, ranks = tuple(part.weights), part.sizes
        lam = {"gk": lambda: gk_schedule(3, 0.1, ranks, w),
               "gf": lambda: gf_schedule(0.1, 0.1, ranks, w),
               "bh": lambda: bh_schedule(len(part), 0.1)}[rule]().values
        fit = solve_group_slope(None, y, part, lam, sigma=1.3)
        beta, norms, ref = _dense_diagonal_route(part, y, lam, 1.3)
        assert fit.beta.tobytes() == beta.tobytes()
        assert fit.group_norms.tobytes() == norms.tobytes()
        assert fit.converged and fit.selected_groups
        assert fit[3:] == ref[2:]


def test_unequal_weight_identity_fit_honours_tol_and_max_iter():
    # the block-norm fit runs at the caller's tol and max_iter and reports
    # its own counters
    part, y = _unequal_identity_problem(0)
    lam = gf_schedule(0.1, 0.1, part.sizes, tuple(part.weights)).values
    tight = solve_group_slope(None, y, part, lam, tol=1e-12)
    assert tight.converged and tight.final_gap <= 1e-12
    assert tight.iterations > 1 and tight.matvecs > 0
    ref = _dense_diagonal_route(part, y, lam, 1.0, tol=1e-12)[2]
    assert tight[3:] == ref[2:]
    capped = solve_group_slope(None, y, part, lam, max_iter=3)
    assert not capped.converged and capped.iterations == 3
    assert capped.final_gap > 1e-8


def _noncontiguous_partition(tmp_path):
    rng = np.random.default_rng(21)
    feats = rng.permutation(24)
    rows = ["feature_index,group_id"]
    for gid, cut in enumerate(np.split(feats, [3, 7, 12, 14, 19])):
        rows += [f"{i},{gid}" for i in cut]
    path = tmp_path / "groups.csv"
    path.write_text("\n".join(rows) + "\n")
    return GroupPartition.from_csv(path)


@pytest.mark.parametrize("weights", [None, (2.0, 2.0), (1.0, 2.0)], ids=["unit", "equal", "unequal"])
def test_identity_fit_refuses_the_sigma_it_was_given(weights):
    # the equal-weight fit scales sigma by the weight: the refusal names the
    # caller's sigma, not the product
    part = GroupPartition.from_sizes((2, 2), None if weights is None else np.array(weights))
    with pytest.raises(ValueError, match=r"^sigma must be positive, got -1\.0$"):
        solve_group_slope(None, np.ones(4), part, np.ones(2), sigma=-1.0)


@pytest.mark.parametrize("case", ["equal", "unequal-inv-sqrt", "noncontiguous-csv"])
def test_identity_without_matrix_equals_dense_identity(case, tmp_path):
    if case == "equal":
        part = GroupPartition.from_sizes((5,) * 40)
    elif case == "unequal-inv-sqrt":
        sizes = (3, 4, 5, 6, 7) * 8
        part = GroupPartition.from_sizes(sizes, 1.0 / np.sqrt(sizes))
    else:
        part = _noncontiguous_partition(tmp_path)
        assert any(g != tuple(range(g[0], g[0] + len(g))) for g in part.groups)
    m, t = part.num_features, len(part)
    rng = np.random.default_rng(len(case))
    beta = np.zeros(m)
    for g in rng.choice(t, size=max(1, t // 8), replace=False):
        beta[list(part.groups[g])] = 4.0
    y = beta + rng.normal(size=m)
    lam = gf_schedule(0.1, 0.1, part.sizes, tuple(part.weights)).values
    fit = solve_group_slope(None, y, part, lam)
    dense = solve_group_slope(np.eye(m), y, part, lam)
    assert fit.selected_groups == dense.selected_groups
    assert fit.selected_groups
    if case == "equal":
        assert np.array_equal(fit.group_norms, dense.group_norms)
    else:
        # unequal weights: the dense design runs the loop on X~ / w, while
        # None is one prox, so the two agree to rounding, not bit for bit
        assert np.max(np.abs(fit.group_norms - dense.group_norms)) <= 1e-12
    assert np.max(np.abs(fit.beta - dense.beta)) <= 1e-12
    assert fit.converged and dense.converged
    if case == "equal":
        assert (fit.iterations, fit.matvecs) == (1, 0)


def test_equal_weight_identity_fit_skips_the_fista_loop(monkeypatch):
    # one certified block prox; unequal weights would enter the loop through
    # solve_slope's fit on diag(1/w), so the weights here are equal
    groups_ = ((0, 7, 3), (1,), (2, 8), (4, 5, 6, 9), (10, 11))
    part = GroupPartition(groups_, np.full(len(groups_), 1.7))
    rng = np.random.default_rng(22)
    y = 0.5 * rng.normal(size=part.num_features)
    y[[0, 7, 3]] += 4.0
    lam = bh_schedule(len(part), 0.2).values

    def no_loop(*args):
        raise AssertionError("the identity design must not enter the FISTA loop")

    monkeypatch.setattr(solver, "_fista", no_loop)
    fit = solve_group_slope(None, y, part, lam, sigma=1.2)
    order = np.concatenate(part.groups)
    ranks = np.asarray(part.sizes)
    offsets = np.concatenate(([0], np.cumsum(ranks[:-1])))
    prox = groups._block_problem(offsets, ranks, part.weights[0], lam)[0]
    want = np.zeros(part.num_features)
    want[order] = prox(y[order], 1.2)[0]
    assert fit.beta.tobytes() == want.tobytes()
    assert fit.selected_groups and len(fit.selected_groups) < len(part)
    assert fit.converged and fit.final_gap <= 1e-8
    assert (fit.iterations, fit.restarts, fit.backoffs, fit.matvecs, fit.rounds,
            fit.full_matvecs) == (1, 0, 0, 0, 1, 0)


@pytest.mark.parametrize("weights", [None, "equal"], ids=["sqrt-weights", "equal-weights"])
def test_non_contiguous_partition_stores_its_arrays_and_fits_in_group_order(tmp_path, weights):
    groups_ = ((5, 0, 9), (2,), (8, 1), (3, 11, 4, 7), (10, 6))
    built = GroupPartition(groups_, None if weights is None else np.full(len(groups_), 1.3))
    built.to_csv(tmp_path / "groups.csv")
    read = GroupPartition.from_csv(tmp_path / "groups.csv")
    rng = np.random.default_rng(31)
    y = 0.5 * rng.normal(size=12)
    y[[8, 1]] += 3.0
    lam = bh_schedule(len(groups_), 0.2).values
    for part in (built, read):
        # the arrays stored at construction equal what the partition used
        # to derive from its groups on every access
        order = np.concatenate(part.groups)
        assert part.sizes == tuple(len(g) for g in part.groups)
        assert part.num_features == sum(len(g) for g in part.groups)
        assert part.order.tobytes() == order.tobytes() and part.order.dtype == order.dtype
        fit = solve_group_slope(None, y, part, lam, sigma=1.1)
        if weights is None:
            want = _dense_diagonal_route(part, y, lam, 1.1)[0]
        else:
            ranks = np.array([len(g) for g in part.groups])
            offsets = np.concatenate(([0], np.cumsum(ranks[:-1])))
            prox = groups._block_problem(offsets, ranks, part.weights[0], lam)[0]
            want = np.zeros(12)
            want[order] = prox(y[order], 1.1)[0]
        assert fit.beta.tobytes() == want.tobytes()
        assert fit.converged and fit.selected_groups


def test_identity_without_matrix_checks_lengths():
    part = GroupPartition.from_sizes((2, 2))
    with pytest.raises(ValueError, match="schedule has length"):
        solve_group_slope(None, np.zeros(4), part, np.ones(3))
    with pytest.raises(ValueError, match="response has shape"):
        solve_group_slope(None, np.zeros(5), part, np.ones(2))


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
    y = rng.normal(size=18)
    lam = np.array([1.0, 0.6, 0.3])
    # equal weights, then unequal ones, which fold into the design
    for part in (GroupPartition.from_sizes((2, 2, 2)), GroupPartition.from_sizes((1, 2, 3))):
        sp = standardize(X, part)
        before = sp.x_tilde.tobytes()
        a = solve_group_slope(X, y, part, lam)
        b = solve_group_slope(sp, y, part, lam)
        assert np.array_equal(a.beta, b.beta)
        assert a.iterations == b.iterations
        assert sp.x_tilde.tobytes() == before


def test_a_standardization_of_other_groups_is_refused():
    # the same sizes, other groups: fitted unchecked on ((0, 1), (2, 3))'s
    # bases, the fit of ((0, 2), (1, 3)) keeps group 0 only, as converged
    rng = np.random.default_rng(1)
    X = _unit_columns(rng.normal(size=(12, 4)))
    y = X @ np.array([2.0, 2.0, 0.0, 0.0]) + 0.5 * rng.normal(size=12)
    part, lam = GroupPartition(((0, 2), (1, 3))), np.array([2.0, 1.0])
    right = solve_group_slope(X, y, part, lam)
    assert right.converged and right.selected_groups == {0, 1}
    with pytest.raises(ValueError, match="other groups than the partition"):
        solve_group_slope(standardize(X, GroupPartition(((0, 1), (2, 3)))), y, part, lam)
    # the weights may differ: standardize never reads them
    reweighted = standardize(X, GroupPartition(part.groups, np.array([1.0, 3.0])))
    fit = solve_group_slope(reweighted, y, part, lam)
    assert np.array_equal(fit.beta, right.beta) and fit.iterations == right.iterations


@pytest.mark.parametrize("design", ["array", "standardized"])
@pytest.mark.parametrize("bad, fragment", [
    (dict(sigma=-1.0), "sigma must be positive"),
    (dict(tol=np.nan), "tol must be positive"),
    (dict(max_iter=0), "max_iter must be a positive integer"),
    (dict(y=np.array([1.0, np.inf] + [0.0] * 8)), "response contains non-finite values"),
    (dict(y=np.ones(9)), r"response has shape \(9,\), expected \(10,\)"),
], ids=["sigma", "tol-nan", "max-iter-0", "y-inf", "y-short"])
def test_group_fit_checks_its_arguments_before_the_qr(monkeypatch, design, bad, fragment):
    X = _unit_columns(np.random.default_rng(4).normal(size=(10, 6)))
    part = GroupPartition.from_sizes((1, 2, 3))
    sp = standardize(X, part)
    calls = []
    monkeypatch.setattr(groups, "standardize", lambda *args: calls.append(args))
    args = {**dict(y=np.ones(10), sigma=1.0, tol=1e-8, max_iter=100), **bad}
    with pytest.raises(ValueError, match=fragment):
        solve_group_slope(X if design == "array" else sp, args.pop("y"), part,
                          np.ones(3), **args)
    assert calls == []


@pytest.mark.parametrize("weights", [None, (1.0, 2.0)], ids=["equal", "unequal"])
def test_identity_fit_refuses_an_overflowing_block_norm(weights):
    # y is finite; the norm of its first block, sqrt(2e400), is not
    part = GroupPartition.from_sizes((2, 2), None if weights is None else np.array(weights))
    y = np.array([1e200, 1e200, 1.0, 1.0])
    with pytest.raises(ValueError, match="block norm overflows in group 0"):
        solve_group_slope(None, y, part, np.ones(2))


def test_unequal_weights_fold_into_the_design(monkeypatch):
    rng = np.random.default_rng(9)
    sizes = (3, 4, 5, 6, 7) * 2
    part = GroupPartition.from_sizes(sizes)
    X = _unit_columns(rng.normal(size=(60, part.num_features)))
    beta = np.zeros(part.num_features)
    beta[list(part.groups[1])] = 3.0
    y = X @ beta + rng.normal(size=60)
    seen = []

    def spy(v, lam, step):
        seen.append(step)
        return group_prox(v, lam, step)

    monkeypatch.setattr(groups, "group_prox", spy)
    fit = solve_group_slope(X, y, part, bh_schedule(len(sizes), 0.2).values)
    assert fit.converged and fit.selected_groups
    assert len(seen) == fit.iterations + fit.restarts
    # the folded blocks carry unit weights, so the block prox passes the
    # loop's step t = 1/L (halved per back-off) on unscaled
    L = solver.operator_norm_sq(_folded(X, part)[1])
    halvings = np.log2(np.array(seen) * L)
    assert np.all(np.abs(halvings - np.round(halvings)) <= 1e-12)


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


def _folded(X, part):
    """The standardization, and the design and the one weight the solver's loop
    runs on: unequal weights are folded into the blocks as X~_g / w_g with
    unit weights."""
    sp = standardize(X, part)
    w = part.weights
    if np.all(w == w[0]):
        return sp, sp.x_tilde, w[0], np.ones(sp.x_tilde.shape[1])
    col_w = np.repeat(w, sp.ranks)
    return sp, sp.x_tilde / col_w, 1.0, col_w


def _assert_matches_direct_fista(fit, X, y, part, lam, L):
    sp, Xt, wts, col_w = _folded(X, part)
    d, iterations, restarts, _, _, converged = group_fista_direct_reference(
        Xt, y, sp.offsets, np.asarray(sp.ranks), wts, lam,
        1.0, 1e-8, 20000, L, group_prox,
    )
    c = d / col_w
    want = np.zeros(part.num_features)
    for gi, g in enumerate(part.groups):
        blk = c[sp.block(gi)]
        if np.any(blk != 0.0):
            want[list(g)] = np.linalg.lstsq(sp.r_factors[gi], blk, rcond=None)[0]
    assert fit.converged and converged
    assert (fit.iterations, fit.restarts) == (iterations, restarts)
    assert fit.selected_groups == {gi for gi in range(len(part)) if np.any(c[sp.block(gi)])}
    np.testing.assert_allclose(fit.beta, want, rtol=0.0, atol=1e-12)
    # X~^T y once, then X~ @ c_new per step tried (a restart or a back-off
    # tries one more) and X~^T r per iteration
    assert fit.matvecs == 1 + (fit.iterations + fit.restarts + fit.backoffs) + fit.iterations


@pytest.mark.parametrize(
    "seed,n,sizes,equal_weights",
    [
        (0, 90, (3, 4, 5, 3, 4, 5, 3, 4, 5, 3), False),
        (1, 30, (3, 4, 5, 6, 7) * 3, False),
        (2, 40, (2, 3) * 6, True),
    ],
    ids=["tall", "wide", "equal-weights"],
)
def test_group_carried_gradient_matches_direct_fista(monkeypatch, seed, n, sizes,
                                                  equal_weights):
    rng = np.random.default_rng(seed)
    part = GroupPartition.from_sizes(
        sizes, weights=np.ones(len(sizes)) if equal_weights else None
    )
    X = _unit_columns(rng.normal(size=(n, part.num_features)))
    beta = np.zeros(part.num_features)
    for gi in (0, 3):
        beta[list(part.groups[gi])] = 3.0
    y = X @ beta + rng.normal(size=n)
    lam = bh_schedule(len(sizes), 0.2).values
    # start at ||X~||^2, where the tall case's momentum overshoots
    L = np.linalg.norm(_folded(X, part)[1], 2) ** 2
    monkeypatch.setattr(solver, "operator_norm_sq", lambda M: L)
    fit = solve_group_slope(X, y, part, lam)
    assert fit.selected_groups and fit.restarts > 0
    _assert_matches_direct_fista(fit, X, y, part, lam, L)


def _masked_group_problem(seed=0, n=150):
    """Group 1's first column is built at correlation -1/2 with group 0's
    first column and y gives it half the coefficient, so group 1 does not
    violate dual feasibility at c = 0 but enters once group 0 is fitted.
    Unequal group sizes give unequal weights, which the fit folds."""
    rng = np.random.default_rng(seed)
    part = GroupPartition.from_sizes((2, 2) + (1, 2, 3, 4) * 30)
    X = _unit_columns(rng.normal(size=(n, part.num_features)))
    X[:, 2] = _unit_columns(-0.5 * X[:, 0] + np.sqrt(0.75) * _unit_columns(rng.normal(size=n)))
    y = 16.0 * X[:, 0] + 8.0 * X[:, 2] + 0.3 * rng.normal(size=n)
    return X, y, part


def test_group_working_set_grows_to_a_group_masked_at_zero():
    X, y, part = _masked_group_problem()
    lam = bh_schedule(len(part), 0.1).values
    assert not np.all(part.weights == part.weights[0])
    sp = standardize(X, part)

    def dual(g):
        return np.sqrt(np.add.reduceat(g * g, sp.offsets)) / part.weights

    assert 1 not in solver._violators(dual(sp.x_tilde.T @ y), np.cumsum(lam))
    fit = solve_group_slope(X, y, part, lam)
    assert fit.converged and fit.rounds >= 2 and 1 in fit.selected_groups
    assert fit.full_matvecs < fit.matvecs
    # the certificate, recomputed on the unfolded design from beta alone
    c = np.concatenate([sp.r_factors[gi] @ fit.beta[list(g)]
                        for gi, g in enumerate(part.groups)])
    norms = np.sqrt(np.add.reduceat(c * c, sp.offsets))
    np.testing.assert_allclose(norms, fit.group_norms, rtol=1e-12, atol=1e-14)
    r = y - sp.x_tilde @ c
    obj = 0.5 * float(r @ r) + float(np.sort(part.weights * norms)[::-1] @ lam)
    infeas, rel_gap = certificate_reference(y, r, obj, dual(sp.x_tilde.T @ r), lam, 1.0)
    assert infeas <= 1e-8 and rel_gap <= 1e-8
    _, Xt, wts, _ = _folded(X, part)
    full = groups._block_problem(sp.offsets, np.asarray(sp.ranks), wts, lam)
    d, _, _, obj, converged = solver._fista(
        Xt, y, lam, 1.0, 1e-8, 20000, *full,
        (np.zeros(Xt.shape[1]), Xt.T @ y, y, 0.5 * float(y @ y)), [0, 0, 0, 1])
    assert converged
    assert fit.selected_groups == {
        int(gi) for gi in np.flatnonzero(np.add.reduceat(d * d, sp.offsets))}
    assert fit.objective == pytest.approx(obj, rel=1e-8)


def test_group_working_set_shares_the_iteration_cap():
    X, y, part = _masked_group_problem()
    fit = solve_group_slope(X, y, part, bh_schedule(len(part), 0.1).values, max_iter=2)
    assert fit.rounds == 2
    assert not fit.converged and fit.iterations <= 2 and fit.final_gap > 1e-8


def test_group_step_backoff_recovers_from_underestimated_norm(monkeypatch):
    # two signal groups, then groups pairing a noise column with a near-copy
    # of a proxy for the signal: the proxy enters the first steps, the
    # optimum drops it, and its copies give X~ most of its operator norm
    rng = np.random.default_rng(0)
    n, copies = 40, 4
    A = _unit_columns(rng.normal(size=(n, 4)))
    proxy = A[:, 0] + A[:, 2] + 3.0 * _unit_columns(rng.normal(size=(n, 1)))[:, 0]
    B = _unit_columns(proxy[:, None] + 0.05 * rng.normal(size=(n, copies)))
    Z = _unit_columns(rng.normal(size=(n, copies)))
    X = np.hstack([A] + [np.column_stack([B[:, i], Z[:, i]]) for i in range(copies)])
    y = 6.0 * (A[:, 0] + A[:, 2]) + 0.3 * rng.normal(size=n)
    part = GroupPartition.from_sizes((2,) * (2 + copies))
    lam = bh_schedule(len(part), 0.2).values
    norm_sq = np.linalg.norm(standardize(X, part).x_tilde, 2) ** 2
    monkeypatch.setattr(solver, "operator_norm_sq", lambda M: norm_sq)
    plain = solve_group_slope(X, y, part, lam)
    assert plain.backoffs == 0
    # a step 1/low overshoots the quadratic upper bound along the proxy's
    # direction, so the loop must double its estimate
    low = 0.3 * norm_sq
    monkeypatch.setattr(solver, "operator_norm_sq", lambda M: low)
    fit = solve_group_slope(X, y, part, lam)
    assert fit.backoffs > 0
    assert fit.converged and fit.final_gap <= 1e-8
    assert fit.selected_groups == plain.selected_groups
    _assert_matches_direct_fista(fit, X, y, part, lam, low)


def test_group_solver_validation():
    part = GroupPartition.from_sizes((2, 2))
    X = np.eye(4)
    with pytest.raises(ValueError, match="response has shape"):
        solve_group_slope(X, np.zeros(3), part, np.ones(2))
    with pytest.raises(ValueError, match="schedule has length"):
        solve_group_slope(X, np.zeros(4), part, np.ones(3))
    with pytest.raises(ValueError, match="sigma"):
        solve_group_slope(X, np.zeros(4), part, np.ones(2), sigma=-1.0)
    with pytest.raises(ValueError, match="tol"):
        solve_group_slope(X, np.ones(4), part, np.ones(2), tol=0.0)
    with pytest.raises(ValueError, match="max_iter"):
        solve_group_slope(X, np.ones(4), part, np.ones(2), max_iter=0)


def test_group_support_metrics_counts():
    sm = group_support_metrics({0, 2, 5}, {0, 1}, k=2, gamma=0.3)
    assert (sm.v, sm.r, sm.tp) == (2, 3, 1)
    assert sm.k_hit
    assert sm.fdp == pytest.approx(2.0 / 3.0)
    assert sm.fdp_exceeds
    assert sm.power == pytest.approx(0.5)
